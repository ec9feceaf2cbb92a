#include "src/telemetry/export.hh"

#include "src/common/json.hh"
#include "src/common/log.hh"

namespace pmill {

void
write_csv_record(std::ostream &os, const std::vector<std::string> &cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string &c = cells[i];
        const bool quote = c.find_first_of(",\"\n") != std::string::npos;
        if (i)
            os << ',';
        if (quote) {
            os << '"';
            for (char ch : c) {
                if (ch == '"')
                    os << '"';
                os << ch;
            }
            os << '"';
        } else {
            os << c;
        }
    }
    os << '\n';
}

void
export_jsonl(const Timeline &tl, std::ostream &os)
{
    for (const TimelineRow &r : tl.rows) {
        PMILL_ASSERT(r.values.size() == tl.columns.size(),
                     "timeline row has %zu values for %zu columns",
                     r.values.size(), tl.columns.size());
        JsonRecord rec("sample");
        rec.num("t_us", r.t_us).num("dt_us", r.dt_us);
        if (r.partial)
            rec.boolean("partial", true);
        for (std::size_t c = 0; c < tl.columns.size(); ++c)
            rec.num(tl.columns[c], r.values[c]);
        os << rec;
    }
}

void
export_csv(const Timeline &tl, std::ostream &os)
{
    std::vector<std::string> header = {"t_us", "dt_us", "partial"};
    header.insert(header.end(), tl.columns.begin(), tl.columns.end());
    write_csv_record(os, header);
    for (const TimelineRow &r : tl.rows) {
        PMILL_ASSERT(r.values.size() == tl.columns.size(),
                     "timeline row has %zu values for %zu columns",
                     r.values.size(), tl.columns.size());
        std::vector<std::string> cells = {json_number(r.t_us),
                                          json_number(r.dt_us),
                                          r.partial ? "1" : "0"};
        for (double v : r.values)
            cells.push_back(json_number(v));
        write_csv_record(os, cells);
    }
}

} // namespace pmill

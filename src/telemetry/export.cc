#include "src/telemetry/export.hh"

#include "src/common/json.hh"
#include "src/common/log.hh"

namespace pmill {

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

} // namespace pmill

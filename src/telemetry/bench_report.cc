#include "src/telemetry/bench_report.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>

#include <unistd.h>

#include "src/common/json.hh"
#include "src/common/log.hh"
#include "src/common/table_printer.hh"

namespace pmill {

namespace {

// Serializes artifact writes within one process: the parallel-host
// benches emit() from the main thread while worker threads are alive,
// and nothing stops a future bench from emitting two reports
// concurrently. Cross-process races are handled below (EEXIST-tolerant
// directory creation, temp-file + rename publication).
std::mutex artifacts_mutex;

/**
 * Write @p path atomically: stream into a process-unique temp name in
 * the same directory, then rename() over the target. A concurrent
 * writer (two bench binaries sharing one $PMILL_BENCH_DIR) can lose
 * the race, but the published file is always one writer's complete
 * output, never an interleaving.
 *
 * @return false (with the temp file cleaned up) if anything failed.
 */
bool
write_file_atomic(const std::string &path, const std::string &body)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out << body;
        out.flush();
        if (!out) {
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            return false;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::error_code ec2;
        std::filesystem::remove(tmp, ec2);
        return false;
    }
    return true;
}

} // namespace

BenchReport::BenchReport(std::string name, std::string title)
    : name_(std::move(name)), title_(std::move(title))
{}

void
BenchReport::header(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
BenchReport::row(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

void
BenchReport::note(std::string text)
{
    note_ = std::move(text);
}

void
BenchReport::emit() const
{
    TablePrinter t;
    t.header(header_);
    for (const auto &r : rows_)
        t.row(r);
    t.print(title_);
    if (!note_.empty())
        std::printf("\n%s\n", note_.c_str());
    write_artifacts();
}

void
BenchReport::write_artifacts() const
{
    const char *dir = std::getenv("PMILL_BENCH_DIR");
    std::string base = dir ? dir : ".";
    if (base == "none")
        return;

    const std::lock_guard<std::mutex> lock(artifacts_mutex);

    std::error_code ec;
    std::filesystem::create_directories(base, ec);
    // create_directories is racy across processes: another writer can
    // create a path component between this call's existence probe and
    // its mkdir, surfacing EEXIST as an error even though the
    // directory is exactly what we wanted. Only fail when the path
    // truly is not a directory afterwards.
    if (ec && !std::filesystem::is_directory(base)) {
        warn("bench artifacts: cannot create %s: %s", base.c_str(),
             ec.message().c_str());
        return;
    }
    base += "/" + name_;

    std::string json = JsonRecord("meta")
                           .str("bench", name_).str("title", title_)
                           .strs("columns", header_).line();
    for (const auto &r : rows_) {
        JsonRecord rec("row");
        for (std::size_t i = 0; i < r.size() && i < header_.size(); ++i)
            rec.cell(header_[i], r[i]);
        json += rec.line();
    }

    if (!write_file_atomic(base + ".json", json)) {
        warn("bench artifacts: cannot write %s.json", base.c_str());
        return;
    }

    std::printf("artifacts:  %s.json\n", base.c_str());
}

} // namespace pmill

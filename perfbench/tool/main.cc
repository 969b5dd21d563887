#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "tool.hh"

#if defined(GAZE_OBS_ENABLED)
constexpr int kGazeObs = 1;
#else
constexpr int kGazeObs = 0;
#endif

namespace perfbench
{

std::string
argValue(const std::vector<std::string> &args, const std::string &key)
{
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == key && i + 1 < args.size())
            return args[i + 1];
        if (args[i].rfind(key + "=", 0) == 0)
            return args[i].substr(key.size() + 1);
    }
    return "";
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        size_t end = s.find(',', start);
        if (end == std::string::npos)
            end = s.size();
        if (end > start)
            out.push_back(s.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    std::string cmd = args.empty() ? "" : args[0];
    if (!args.empty())
        args.erase(args.begin());
    if (cmd == "corpus")
        return perfbench::corpusMain(args);
    if (cmd == "traced") {
        try {
            return perfbench::tracedMain(args);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "traced: %s\n", e.what());
            return 1;
        }
    }
    if (cmd == "build-info") {
        // Provenance for run.py: what compiled this build.
        std::printf("{\"compiler\": \"%s %s\", \"build_type\": \"%s\", "
                    "\"gaze_obs\": %d}\n",
#if defined(__clang__)
                    "clang",
#elif defined(__GNUC__)
                    "gcc",
#else
                    "c++",
#endif
                    __VERSION__, PERFBENCH_BUILD_TYPE, kGazeObs);
        return 0;
    }
    std::fprintf(stderr,
                 "usage: perfbench_tool corpus --seed=N --records=N "
                 "--out=DIR --workloads=a,b\n"
                 "       perfbench_tool traced --specs=a.json,b.json "
                 "--threads=N --cache-dir=DIR --report-dir=DIR "
                 "--spans=FILE\n"
                 "       perfbench_tool build-info\n");
    return 2;
}

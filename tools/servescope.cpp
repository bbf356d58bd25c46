// servescope: analysis CLI for the files ServeScope runs write.
//
//   servescope report   <telemetry.json> [--slo <seconds>] [--slo-target <0..1>]
//   servescope capacity <telemetry.json>
//   servescope diff     <base.json> <candidate.json> [--tolerance <frac>]
//   servescope trace    <trace.json> [--top <n>] [--tolerance <frac>]
//   servescope check    <baseline.json> <current.json> [--tolerance <frac>] [--allow-debug]
//
// Every subcommand reads its input through the shared reader (reader.h).
// Exit codes: 0 success; 1 a gate failed (diff regression, trace check,
// check regression or non-Release numbers); 2 unreadable, malformed or
// wrong-schema input, or a bad command line.
#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "reader.h"

namespace {

struct Command {
  const char* name;
  int (*run)(const scope::Args&);
  std::size_t paths;
  std::vector<std::string_view> numeric, switches;
  const char* usage;
};

const std::vector<Command>& commands() {
  static const std::vector<Command> kCommands = {
      {"report", scope::run_report, 1, {"--slo", "--slo-target"}, {},
       "<telemetry.json> [--slo <seconds>] [--slo-target <0..1>]"},
      {"capacity", scope::run_capacity, 1, {}, {}, "<telemetry.json>"},
      {"diff", scope::run_diff, 2, {"--tolerance"}, {},
       "<base.json> <candidate.json> [--tolerance <frac>]"},
      {"trace", scope::run_trace, 1, {"--top", "--tolerance"}, {},
       "<trace.json> [--top <n>] [--tolerance <frac>]"},
      {"check", scope::run_check, 2, {"--tolerance"}, {"--allow-debug"},
       "<baseline.json> <current.json> [--tolerance <frac>] [--allow-debug]"},
  };
  return kCommands;
}

void print_usage(std::FILE* out) {
  for (const Command& c : commands()) {
    std::fprintf(out, "usage: servescope %-8s %s\n", c.name, c.usage);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> argv_rest(argv + std::min(argc, 2), argv + argc);
  const std::string_view sub = argc > 1 ? argv[1] : "";
  const Command* cmd = nullptr;
  for (const Command& c : commands()) {
    if (sub == c.name) cmd = &c;
  }
  if (cmd == nullptr) {
    const bool help = sub == "--help" || sub == "-h";
    if (!help && !sub.empty()) {
      std::fprintf(stderr, "servescope: unknown subcommand '%s'\n", std::string(sub).c_str());
    }
    print_usage(help ? stdout : stderr);
    return help ? 0 : 2;
  }
  const char* name = cmd->name;
  try {
    for (const std::string& arg : argv_rest) {
      if (arg == "--help" || arg == "-h") {
        std::printf("usage: servescope %s %s\n", name, cmd->usage);
        return 0;
      }
    }
    return cmd->run(scope::parse_args(argv_rest, cmd->paths, cmd->numeric, cmd->switches));
  } catch (const scope::UsageError& e) {
    std::fprintf(stderr, "servescope %s: %s\nusage: servescope %s %s\n", name, e.what(), name,
                 cmd->usage);
  } catch (const scope::InputError& e) {
    std::fprintf(stderr, "servescope %s: %s\n", name, e.what());
  }
  return 2;
}

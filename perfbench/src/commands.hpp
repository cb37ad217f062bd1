// The tool's subcommands (see main.cpp for usage).
#pragma once

#include "workload.hpp"

namespace perfbench {

int cmd_reference(const Flags& flags);
int cmd_split(const Flags& flags);
int cmd_replay(const Flags& flags);
int cmd_layers(const Flags& flags);

}  // namespace perfbench

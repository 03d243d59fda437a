/**
 * @file
 * The observability outputs every simulator binary opens from its
 * command line (docs/observability.md).
 */

#ifndef NETSPARSE_SIM_OUTPUTS_HH
#define NETSPARSE_SIM_OUTPUTS_HH

namespace netsparse {

/**
 * Open --trace-out, --stats-json, --telemetry-out and --spans-out from
 * their flags, else their NETSPARSE_* variables, and take the flags out
 * of @p argv. A path that cannot be created is fatal ("cannot open <flag
 * or variable> output <path>"); the documents are written at exit.
 */
void openOutputs(int &argc, char **argv);

} // namespace netsparse

#endif // NETSPARSE_SIM_OUTPUTS_HH

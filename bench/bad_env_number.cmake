# A malformed numeric environment variable must fail a run up front:
# exit 1 with one "fatal: <VAR>: expected <what>, got '<VALUE>'" line
# and no abort, instead of a run with a silently misread value. Run by
# ctest (bench/ and examples/CMakeLists.txt):
#
#   cmake -DBIN=<binary> -DVAR=NETSPARSE_BENCH_NODES -DVALUE=8abc
#         [-DARGS=<;-separated arguments>] [-DSTATS=... -DTRACE=...]
#         -P bad_env_number.cmake
#
# STATS and TRACE check outputs the run opened (expect_exit.cmake).
#
# Small sizes and trailing-garbage values bound the run of a binary
# that reads only the leading number.
set(ENV{NETSPARSE_BENCH_SCALE} 0.05)
set(ENV{NETSPARSE_BENCH_NODES} 8)
set(ENV{${VAR}} ${VALUE})

set(CODE 1)
set(MATCH "${VAR}: expected [^\n]*, got '${VALUE}'")
include(${CMAKE_CURRENT_LIST_DIR}/expect_exit.cmake)

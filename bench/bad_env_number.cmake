# A malformed numeric environment variable must fail a run up front: a
# non-zero exit and "<VAR>: expected <what>, got '<VALUE>'", instead of
# a run with a silently misread value. Run by ctest (bench/ and
# examples/CMakeLists.txt):
#
#   cmake -DBIN=<binary> -DVAR=NETSPARSE_BENCH_NODES -DVALUE=8abc
#         [-DARGS=<;-separated arguments>] -P bad_env_number.cmake
#
# Small sizes and trailing-garbage values bound the run of a binary
# that reads only the leading number.
set(ENV{NETSPARSE_BENCH_SCALE} 0.05)
set(ENV{NETSPARSE_BENCH_NODES} 8)
set(ENV{${VAR}} ${VALUE})

execute_process(COMMAND ${BIN} ${ARGS}
    RESULT_VARIABLE code ERROR_VARIABLE err OUTPUT_QUIET)
if(code EQUAL 0 OR NOT err MATCHES "${VAR}: expected [^\n]*, got '${VALUE}'")
    message(FATAL_ERROR "${VAR}=${VALUE}: exit ${code}, stderr: ${err}")
endif()

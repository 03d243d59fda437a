# An unwritable observability output must fail a bench up front: exit 1
# with "cannot open <source> output", where the source is the flag or,
# when no flag is given, the environment variable that supplied the
# path, reported once (no "warn:" line besides it). Run by ctest
# (bench/CMakeLists.txt):
#
#   cmake -DBENCH=<bench binary> -DFLAG=--trace-out
#         -DVAR=NETSPARSE_TRACE_OUT -DOUT=<missing dir>/out.json
#         -P bad_output_path.cmake
#
# Small sizes bound the run of a bench that ignores the path.
set(ENV{NETSPARSE_BENCH_SCALE} 0.05)
set(ENV{NETSPARSE_BENCH_NODES} 8)
unset(ENV{${VAR}})

execute_process(COMMAND ${BENCH} ${FLAG} ${OUT}
    RESULT_VARIABLE code ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT code EQUAL 1 OR NOT err MATCHES "cannot open ${FLAG} output" OR
   err MATCHES "warn:")
    message(FATAL_ERROR "${FLAG} ${OUT}: exit ${code}, stderr: ${err}")
endif()

set(ENV{${VAR}} ${OUT})
execute_process(COMMAND ${BENCH}
    RESULT_VARIABLE code ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT code EQUAL 1 OR NOT err MATCHES "cannot open ${VAR} output" OR
   err MATCHES "warn:")
    message(FATAL_ERROR "${VAR}=${OUT}: exit ${code}, stderr: ${err}")
endif()

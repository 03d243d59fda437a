# Run one binary and check how it ends: its exit status, its error
# message, and that a fatal() user error ends cleanly - exit 1 with
# exactly one "fatal:" line, which names the input rather than a
# "(<source file>:<line>)", and no "terminate called" of an uncaught
# exception.
# Run by ctest (bench/ and examples/CMakeLists.txt), which sets any
# environment variable through the test's ENVIRONMENT property:
#
#   cmake -DBIN=<binary> [-DARGS=<;-separated arguments>]
#         -DCODE=<exit status> -DMATCH=<regex over stderr>
#         [-DSTATS=<path>] [-DTRACE=<path>] -P expect_exit.cmake
#
# STATS and TRACE name outputs the run opens before it fails: the stats
# file must then hold a netsparse-stats-v1 document with no runs, and
# the trace file non-empty valid JSON (read with string(JSON), CMake
# 3.19 or later).

if(DEFINED STATS OR DEFINED TRACE)
    file(REMOVE ${STATS} ${TRACE})
endif()

execute_process(COMMAND ${BIN} ${ARGS}
    RESULT_VARIABLE code ERROR_VARIABLE err OUTPUT_QUIET)
string(REGEX MATCHALL "(^|\n)fatal:" fatals "${err}")
list(LENGTH fatals num_fatals)
if(NOT code EQUAL CODE OR NOT err MATCHES "${MATCH}" OR
   err MATCHES "terminate called" OR
   (CODE EQUAL 1 AND NOT num_fatals EQUAL 1) OR
   (CODE EQUAL 1 AND err MATCHES "fatal:[^\n]* \\([^\n]*:[0-9]+\\)(\n|$)"))
    message(FATAL_ERROR "${BIN} ${ARGS}: exit ${code}, stderr: ${err}")
endif()

if(DEFINED STATS)
    file(READ ${STATS} doc)
    string(JSON schema GET "${doc}" schema)
    string(JSON runs LENGTH "${doc}" runs)
    if(NOT schema STREQUAL "netsparse-stats-v1" OR NOT runs EQUAL 0)
        message(FATAL_ERROR "${STATS}: ${doc}")
    endif()
endif()
if(DEFINED TRACE)
    file(READ ${TRACE} doc)
    string(JSON events LENGTH "${doc}" traceEvents)
endif()

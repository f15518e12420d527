# route_cli --bound for AST: the bound must reach the route and its
# verification, and a malformed value must exit 2.
#
#   cmake -DROUTE_CLI=path/to/route_cli -DINSTANCE=clustered_r1.inst \
#         -P tests/route_cli_bound.cmake

execute_process(
  COMMAND ${ROUTE_CLI} ${INSTANCE} --algo ast --mode windowed --bound 5
          --threads 1
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--bound 5 exited ${rc}:\n${out}${err}")
endif()
foreach(want "max intra-group : 5 ps" "verification    : OK")
  string(FIND "${out}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "--bound 5 output lacks '${want}':\n${out}")
  endif()
endforeach()

execute_process(
  COMMAND ${ROUTE_CLI} ${INSTANCE} --algo ast --mode windowed --bound 5x
          --threads 1
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--bound 5x exited ${rc}, want 2")
endif()

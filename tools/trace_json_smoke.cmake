# ctest smoke for the deep-profiling artifacts: run one CLI decompose with
# --trace-out (4 workers, so the timeline gets real per-thread tracks) plus
# --metrics-out, and prove both artifacts parse under the repo's strict
# JSON reader with their schema keys present. Invoked as
#   cmake -DTKC_CLI=<tkc binary> -DJSON_CHECK=<json_check binary>
#         -DEDGES=<edge list> -DTRACE_OUT=<path> -DMETRICS_OUT=<path>
#         -P trace_json_smoke.cmake

execute_process(
  COMMAND "${TKC_CLI}" decompose "${EDGES}" --threads=4
          --trace-out=${TRACE_OUT} --metrics-out=${METRICS_OUT}
  RESULT_VARIABLE cli_rc
  OUTPUT_QUIET)
if(NOT cli_rc EQUAL 0)
  message(FATAL_ERROR "tkc decompose exited with ${cli_rc}")
endif()

execute_process(
  COMMAND "${JSON_CHECK}" "${TRACE_OUT}"
          --require=schema,traceEvents --require=tracks,mem
  RESULT_VARIABLE trace_rc)
if(NOT trace_rc EQUAL 0)
  message(FATAL_ERROR "json_check rejected ${TRACE_OUT} (${trace_rc})")
endif()

execute_process(
  COMMAND "${JSON_CHECK}" "${METRICS_OUT}"
          --require=schema,metrics,trace
  RESULT_VARIABLE metrics_rc)
if(NOT metrics_rc EQUAL 0)
  message(FATAL_ERROR "json_check rejected ${METRICS_OUT} (${metrics_rc})")
endif()

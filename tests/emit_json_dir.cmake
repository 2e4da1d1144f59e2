# --emit-json into a directory that does not exist yet: the figure
# binary must create it and write the report, not fail after its sweep.
#
#   cmake -DFIGURE=<tab_config> -DOUT_DIR=<scratch dir> -P emit_json_dir.cmake
file(REMOVE_RECURSE "${OUT_DIR}")
set(report "${OUT_DIR}/a/b/config.json")
execute_process(COMMAND "${FIGURE}" --jobs 1 --emit-json "${report}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${FIGURE} --emit-json ${report} exited ${rc}")
endif()
if(NOT EXISTS "${report}")
    message(FATAL_ERROR "${FIGURE} did not write ${report}")
endif()

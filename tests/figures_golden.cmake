# tests/figures_golden.cmake - exact-table gate for the paper's figures.
#
# tab3, fig4, fig5, fig6 and the ablation print only the engine registry
# and modeled cycles, so at WISP_BENCH_RUNS=1 WISP_BENCH_SCALE=1 their
# stdout is exact and must match the committed BENCH_figures.txt byte for
# byte. Invoked as:
#   cmake -DBENCH_BIN=<bench_figures> -DGOLDEN=<BENCH_figures.txt>
#         -DWISP_WORKDIR=<dir> -P figures_golden.cmake
#
# Rule: a change that moves codegen or the cycle model on purpose
# regenerates the golden in the same change and says so in CHANGES.md:
#   WISP_BENCH_RUNS=1 WISP_BENCH_SCALE=1 \
#     build/bench_figures tab3 fig4 fig5 fig6 ablation > BENCH_figures.txt
# Never edit the golden to hide a change nobody meant to make.

foreach(var BENCH_BIN GOLDEN WISP_WORKDIR)
  if(NOT ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

set(ENV{WISP_BENCH_RUNS} 1)
set(ENV{WISP_BENCH_SCALE} 1)
unset(ENV{WISP_BENCH_JSON})
set(ACTUAL ${WISP_WORKDIR}/BENCH_figures.actual.txt)
execute_process(
  COMMAND ${BENCH_BIN} tab3 fig4 fig5 fig6 ablation
  OUTPUT_FILE ${ACTUAL}
  ERROR_VARIABLE ERR
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "bench_figures failed (rc=${RC}):\n${ERR}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
  RESULT_VARIABLE SAME)
if(NOT SAME EQUAL 0)
  execute_process(COMMAND diff -u ${GOLDEN} ${ACTUAL}) # Shows the change.
  message(FATAL_ERROR "figure tables differ from ${GOLDEN} (actual: ${ACTUAL})")
endif()

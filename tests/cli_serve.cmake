# tests/cli_serve.cmake - ctest for the serve-mode static admission precheck.
#
# End-to-end: a job whose static bounds provably exceed the session caps
# (tests/data/must-recurse.wasm recurses unconditionally, so any finite
# --max-call-depth is guaranteed to be exhausted) is shed at admission with
# exactly one `reject <id> static-bounds: ...` line; the same job under
# --no-static-precheck is admitted and runs to the governed StackOverflow
# trap; and well-bounded jobs are admitted either way. Invoked as:
#   cmake -DWISP_BIN=<wisp> -DWISP_WORKDIR=<dir> -P cli_serve.cmake

if(NOT WISP_BIN)
  message(FATAL_ERROR "pass -DWISP_BIN=<path to the wisp binary>")
endif()
if(NOT WISP_WORKDIR)
  message(FATAL_ERROR "pass -DWISP_WORKDIR=<scratch directory>")
endif()

get_filename_component(HERE ${CMAKE_SCRIPT_MODE_FILE} DIRECTORY)
set(RECURSE ${HERE}/data/must-recurse.wasm)
if(NOT EXISTS ${RECURSE})
  message(FATAL_ERROR "missing fixture ${RECURSE}")
endif()

function(run_serve outvar infile)
  execute_process(
    COMMAND ${WISP_BIN} --serve --jobs=2 ${ARGN}
    INPUT_FILE ${infile}
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR
    RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "serve session failed (rc=${RC}):\n${OUT}${ERR}")
  endif()
  set(${outvar} "${OUT}" PARENT_SCOPE)
endfunction()

# --- Precheck on (the default): the doomed job is rejected at admission,
# --- exactly once, and never reaches a worker; its well-behaved neighbors
# --- are unaffected. The id is echoed on the reject line.
set(SERVE_IN ${WISP_WORKDIR}/cli_serve_in.txt)
file(WRITE ${SERVE_IN}
  "nop tier=spc id=before\n"
  "${RECURSE} tier=spc id=doomed\n"
  "${RECURSE} tier=spc id=doomed2\n"
  "nop tier=spc id=after\n"
  "shutdown\n")
run_serve(OUT ${SERVE_IN} --max-call-depth=64)
if(NOT OUT MATCHES "done before = <void>")
  message(FATAL_ERROR "precheck: job before not answered: ${OUT}")
endif()
if(NOT OUT MATCHES "reject doomed static-bounds: .*recurses")
  message(FATAL_ERROR "precheck: doomed job not rejected: ${OUT}")
endif()
# Memoized second decision, same answer under its own id.
if(NOT OUT MATCHES "reject doomed2 static-bounds:")
  message(FATAL_ERROR "precheck: second doomed job not rejected: ${OUT}")
endif()
if(OUT MATCHES "done doomed")
  message(FATAL_ERROR "precheck: rejected job also reported done: ${OUT}")
endif()
if(NOT OUT MATCHES "done after = <void>")
  message(FATAL_ERROR "precheck: job after not answered: ${OUT}")
endif()
# Exactly-once: one reject line per doomed job, 2 accepted / 2 rejected.
string(REGEX MATCHALL "reject [^\n]*" REJECTS "${OUT}")
list(LENGTH REJECTS NREJECTS)
if(NOT NREJECTS EQUAL 2)
  message(FATAL_ERROR "precheck: expected 2 reject lines, got ${NREJECTS}: ${OUT}")
endif()
if(NOT OUT MATCHES "# serve: drained, 2 accepted, 2 rejected")
  message(FATAL_ERROR "precheck: summary mismatch: ${OUT}")
endif()

# --- The default engine cap (4096 frames) also rejects an unconditionally
# --- recursive entry point: no finite cap admits it.
set(SERVE_IN2 ${WISP_WORKDIR}/cli_serve_in2.txt)
file(WRITE ${SERVE_IN2}
  "${RECURSE} tier=spc id=doomed\n"
  "shutdown\n")
run_serve(OUT_NOCAP ${SERVE_IN2})
if(NOT OUT_NOCAP MATCHES "reject doomed static-bounds:")
  message(FATAL_ERROR "default-cap precheck did not reject: ${OUT_NOCAP}")
endif()

# --- Escape hatch: --no-static-precheck admits the same job, which runs
# --- to the governed trap and is reported exactly once as a done line.
run_serve(OUT_OFF ${SERVE_IN} --max-call-depth=64 --no-static-precheck)
if(NOT OUT_OFF MATCHES "done doomed trap: call stack exhausted")
  message(FATAL_ERROR
    "--no-static-precheck: doomed job did not run to the trap: ${OUT_OFF}")
endif()
if(OUT_OFF MATCHES "reject doomed")
  message(FATAL_ERROR "--no-static-precheck: job still rejected: ${OUT_OFF}")
endif()
if(NOT OUT_OFF MATCHES "# serve: drained, 4 accepted, 0 rejected")
  message(FATAL_ERROR "--no-static-precheck: summary mismatch: ${OUT_OFF}")
endif()

# --- Batch mode shares the precheck: the doomed job is answered with a
# --- static-bounds error at admission (batch runs with engine defaults),
# --- and --no-static-precheck runs it to the StackOverflow trap instead.
set(MANIFEST ${WISP_WORKDIR}/cli_serve_batch.txt)
file(WRITE ${MANIFEST}
  "nop tier=spc\n"
  "${RECURSE} tier=spc\n")
execute_process(
  COMMAND ${WISP_BIN} --batch=${MANIFEST}
  OUTPUT_VARIABLE BOUT ERROR_VARIABLE BERR RESULT_VARIABLE BRC)
if(BRC EQUAL 0)
  message(FATAL_ERROR "batch precheck: static-bounds error should fail the "
                      "batch (rc=${BRC}): ${BOUT}${BERR}")
endif()
if(NOT BOUT MATCHES "static-bounds: .*recurses")
  message(FATAL_ERROR "batch precheck: no static-bounds job line: ${BOUT}")
endif()
execute_process(
  COMMAND ${WISP_BIN} --batch=${MANIFEST} --no-static-precheck
  OUTPUT_VARIABLE BOUT2 RESULT_VARIABLE BRC2)
if(NOT BOUT2 MATCHES "trap: call stack exhausted")
  message(FATAL_ERROR
    "batch --no-static-precheck: doomed job did not trap: ${BOUT2}")
endif()
if(BOUT2 MATCHES "static-bounds")
  message(FATAL_ERROR
    "batch --no-static-precheck: job still prechecked: ${BOUT2}")
endif()

# --- Hostile module: its load error is answered on its own id, the job
# --- queued behind it still runs, and the daemon drains cleanly.
set(HUGE_BRTABLE ${HERE}/data/brtable-huge-count.wasm)
set(SERVE_IN3 ${WISP_WORKDIR}/cli_serve_in3.txt)
file(WRITE ${SERVE_IN3}
  "nop tier=spc id=before\n"
  "${HUGE_BRTABLE} tier=spc id=hostile\n"
  "nop tier=spc id=after\n"
  "shutdown\n")
run_serve(OUT_HOSTILE ${SERVE_IN3})
if(NOT OUT_HOSTILE MATCHES "done hostile error: [^\n]*br_table")
  message(FATAL_ERROR "hostile module not answered with an error: ${OUT_HOSTILE}")
endif()
if(NOT OUT_HOSTILE MATCHES "done before = <void>" OR
   NOT OUT_HOSTILE MATCHES "done after = <void>")
  message(FATAL_ERROR "hostile module disturbed its neighbors: ${OUT_HOSTILE}")
endif()
if(NOT OUT_HOSTILE MATCHES "# serve: drained, 3 accepted, 0 rejected")
  message(FATAL_ERROR "hostile module: summary mismatch: ${OUT_HOSTILE}")
endif()

file(REMOVE ${SERVE_IN} ${SERVE_IN2} ${SERVE_IN3} ${MANIFEST})
message(STATUS "cli_serve: static admission precheck verified end to end")

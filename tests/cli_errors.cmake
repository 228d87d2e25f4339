# tests/cli_errors.cmake - ctest for wisp CLI error paths.
#
# Exercises the failure modes cli_smoke skips: malformed flag values,
# --tier/--config conflicts, unknown tiers/configs/monitors, nonexistent
# modules and exports, and out-of-range argument parsing. Invoked as:
#   cmake -DWISP_BIN=<path-to-wisp> -P cli_errors.cmake

if(NOT WISP_BIN)
  message(FATAL_ERROR "pass -DWISP_BIN=<path to the wisp binary>")
endif()

# expect_fail(<name> <stderr-regex> <arg...>): the command must exit
# nonzero and print a diagnostic matching the regex on stderr.
function(expect_fail name pattern)
  execute_process(
    COMMAND ${WISP_BIN} ${ARGN}
    OUTPUT_QUIET
    ERROR_VARIABLE ERR
    RESULT_VARIABLE RC)
  if(RC EQUAL 0)
    message(FATAL_ERROR "${name}: expected failure but exited 0")
  endif()
  if(NOT ERR MATCHES "${pattern}")
    message(FATAL_ERROR
      "${name}: diagnostic does not match '${pattern}':\n${ERR}")
  endif()
endfunction()

# --- Malformed flag values ---
expect_fail(bad-scale-zero "bad --scale value" --scale=0 nop)
expect_fail(bad-scale-text "bad --scale value" --scale=abc nop)
# The checked parser rejects what raw atoi silently mangled: trailing
# junk, negatives (atoi would wrap or truncate), and overflow past the
# 2^20 iteration cap.
expect_fail(bad-scale-junk "bad --scale value" --scale=3x nop)
expect_fail(bad-scale-negative "bad --scale value" --scale=-1 nop)
expect_fail(bad-scale-overflow "bad --scale value"
            --scale=99999999999999999999 nop)
expect_fail(bad-scale-toolarge "bad --scale value" --scale=1048577 nop)
expect_fail(unknown-option "unknown option" --frobnicate nop)
expect_fail(unknown-tier "unknown tier" --tier=warp nop)
expect_fail(unknown-config "unknown config" --config=nonesuch nop)
expect_fail(unknown-monitor "unknown monitor" --monitor=heat nop)
expect_fail(unknown-opcode "unknown opcode mnemonic"
            --monitor=count:i99.frob nop)

# --- --tier / --config conflict ---
expect_fail(tier-config-conflict "mutually exclusive"
            --tier=int --config=wizard-spc nop)

# --- Malformed compile-cache flags: the toggle takes no value, and there
# --- is no positive spelling (the cache is the default) ---
expect_fail(cache-flag-value "unknown option" --no-compile-cache=1 nop)
expect_fail(cache-flag-value-yes "unknown option" --no-compile-cache=yes nop)
expect_fail(cache-flag-positive "unknown option" --compile-cache nop)
# The valid spelling works in both single-module and batch mode (the
# cache-vs-no-cache report equivalence itself is cli_batch's job).
execute_process(
  COMMAND ${WISP_BIN} --no-compile-cache --tier=spc nop
  OUTPUT_VARIABLE OUT RESULT_VARIABLE RC)
if(NOT RC EQUAL 0 OR NOT OUT MATCHES "run\\(\\) = ")
  message(FATAL_ERROR "--no-compile-cache single-module run failed (rc=${RC}): ${OUT}")
endif()

# --- Disk-cache flags: --cache-dir needs a value, the off toggle takes
# --- none, and a valid directory composes with a normal run ---
expect_fail(cache-dir-empty "bad --cache-dir value" --cache-dir= nop)
expect_fail(cache-dir-novalue "unknown option" --cache-dir nop)
expect_fail(disk-flag-value "unknown option" --no-disk-cache=1 nop)
expect_fail(disk-flag-positive "unknown option" --disk-cache nop)
set(DISK_DIR ${CMAKE_CURRENT_BINARY_DIR}/cli_errors_diskcache)
file(REMOVE_RECURSE ${DISK_DIR})
execute_process(
  COMMAND ${WISP_BIN} --tier=spc --cache-dir=${DISK_DIR} nop
  OUTPUT_VARIABLE OUT RESULT_VARIABLE RC)
if(NOT RC EQUAL 0 OR NOT OUT MATCHES "run\\(\\) = ")
  message(FATAL_ERROR "--cache-dir single-module run failed (rc=${RC}): ${OUT}")
endif()
file(GLOB DISK_FILES ${DISK_DIR}/*.wac)
if(NOT DISK_FILES)
  message(FATAL_ERROR "--cache-dir run published no artifacts in ${DISK_DIR}")
endif()
# --no-disk-cache wins over --cache-dir: nothing new may be written.
file(REMOVE_RECURSE ${DISK_DIR})
execute_process(
  COMMAND ${WISP_BIN} --tier=spc --cache-dir=${DISK_DIR} --no-disk-cache nop
  OUTPUT_VARIABLE OUT RESULT_VARIABLE RC)
if(NOT RC EQUAL 0 OR NOT OUT MATCHES "run\\(\\) = ")
  message(FATAL_ERROR "--no-disk-cache override failed (rc=${RC}): ${OUT}")
endif()
file(GLOB DISK_FILES ${DISK_DIR}/*.wac)
if(DISK_FILES)
  message(FATAL_ERROR "--no-disk-cache still wrote artifacts: ${DISK_FILES}")
endif()
file(REMOVE_RECURSE ${DISK_DIR})

# --- --batch vs. single-module flags (per-job settings belong in the
# --- manifest) and --jobs validation ---
expect_fail(batch-tier-conflict "mutually exclusive.*--tier"
            --batch=m.txt --tier=int)
expect_fail(batch-config-conflict "mutually exclusive.*--config"
            --batch=m.txt --config=wizard-spc)
expect_fail(batch-invoke-conflict "mutually exclusive.*--invoke"
            --batch=m.txt --invoke=gcd)
expect_fail(batch-scale-conflict "mutually exclusive.*--scale"
            --batch=m.txt --scale=2)
expect_fail(batch-m0-conflict "mutually exclusive.*--m0"
            --batch=m.txt --m0)
expect_fail(batch-monitor-conflict "mutually exclusive.*--monitor"
            --batch=m.txt --monitor=branches)
expect_fail(batch-module-conflict "mutually exclusive.*<module>"
            --batch=m.txt nop)
expect_fail(batch-time-conflict "mutually exclusive.*--time"
            --batch=m.txt --time)
expect_fail(jobs-without-batch "--jobs requires --batch" --jobs=4 nop)
expect_fail(bad-jobs-zero "bad --jobs value" --batch=m.txt --jobs=0)
expect_fail(bad-jobs-text "bad --jobs value" --batch=m.txt --jobs=abc)
# --config alone must still work.
execute_process(
  COMMAND ${WISP_BIN} --config=wizard-spc nop
  OUTPUT_VARIABLE OUT
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0 OR NOT OUT MATCHES "run\\(\\) = ")
  message(FATAL_ERROR "--config alone failed (rc=${RC}): ${OUT}")
endif()

# --- --verify / --audit flag conflicts ---
# Audit replaces execution, so every execution-shaping flag conflicts;
# batch jobs configure per-job settings in the manifest, so neither flag
# is allowed there. Both flags take no value.
expect_fail(audit-tier-conflict "mutually exclusive.*--tier"
            --audit --tier=spc nop)
expect_fail(audit-config-conflict "mutually exclusive.*--config"
            --audit --config=wizard-spc nop)
expect_fail(audit-invoke-conflict "mutually exclusive.*--invoke"
            --audit --invoke=run nop)
expect_fail(audit-monitor-conflict "mutually exclusive.*--monitor"
            --audit --monitor=branches nop)
expect_fail(audit-verify-conflict "mutually exclusive.*--verify"
            --audit --verify nop)
expect_fail(audit-time-conflict "mutually exclusive.*--time"
            --audit --time nop)
expect_fail(audit-no-module "no module given" --audit)
expect_fail(batch-verify-conflict "mutually exclusive.*--verify"
            --batch=m.txt --verify)
expect_fail(batch-audit-conflict "mutually exclusive.*--audit"
            --batch=m.txt --audit)
expect_fail(verify-flag-value "unknown option" --verify=1 nop)
expect_fail(audit-flag-value "unknown option" --audit=1 nop)

# --- --analyze conflict matrix: analysis never runs the module, so every
# --- execution flag conflicts; --batch/--serve own their own flag sets
# --- (their matrices fire first); --audit is the other static mode.
# --- --tier/--config are deliberately accepted (cli_smoke asserts the
# --- report is identical across tiers).
expect_fail(analyze-audit-conflict "mutually exclusive.*--audit"
            --analyze --audit nop)
expect_fail(analyze-invoke-conflict "mutually exclusive.*--invoke"
            --analyze --invoke=run nop)
expect_fail(analyze-monitor-conflict "mutually exclusive.*--monitor"
            --analyze --monitor=branches nop)
expect_fail(analyze-verify-conflict "mutually exclusive.*--verify"
            --analyze --verify nop)
expect_fail(analyze-time-conflict "mutually exclusive.*--time"
            --analyze --time nop)
expect_fail(analyze-stats-conflict "mutually exclusive.*--stats"
            --analyze --stats nop)
expect_fail(analyze-fuel-conflict "mutually exclusive.*--fuel"
            --analyze --fuel=100 nop)
expect_fail(analyze-depth-conflict "mutually exclusive.*--max-call-depth"
            --analyze --max-call-depth=64 nop)
expect_fail(batch-analyze-conflict "mutually exclusive.*--analyze"
            --batch=m.txt --analyze)
expect_fail(serve-analyze-conflict "mutually exclusive.*--analyze"
            --serve --analyze)
expect_fail(analyze-no-module "no module given" --analyze)
expect_fail(analyze-flag-value "unknown option" --analyze=1 nop)
# --json is a report format, not a mode of its own.
expect_fail(json-without-mode "--json requires --analyze or --audit"
            --json nop)
expect_fail(batch-json-conflict "mutually exclusive.*--json"
            --batch=m.txt --json)
expect_fail(serve-json-conflict "mutually exclusive.*--json"
            --serve --json)
# --no-static-precheck governs batch/serve admission only.
expect_fail(precheck-without-mode
            "--no-static-precheck requires --batch or --serve"
            --no-static-precheck nop)
expect_fail(precheck-flag-value "unknown option" --no-static-precheck=1 nop)
# --verify itself composes with a normal run.
execute_process(
  COMMAND ${WISP_BIN} --verify --tier=spc nop
  OUTPUT_VARIABLE OUT RESULT_VARIABLE RC)
if(NOT RC EQUAL 0 OR NOT OUT MATCHES "run\\(\\) = ")
  message(FATAL_ERROR "--verify single-module run failed (rc=${RC}): ${OUT}")
endif()

# --- Execution-governance flags: value validation, mode conflicts, and
# --- the trap exit path ---
expect_fail(bad-fuel-zero "bad --fuel value" --fuel=0 nop)
expect_fail(bad-fuel-text "bad --fuel value" --fuel=lots nop)
expect_fail(bad-fuel-junk "bad --fuel value" --fuel=100k nop)
expect_fail(bad-fuel-negative "bad --fuel value" --fuel=-5 nop)
expect_fail(bad-fuel-overflow "bad --fuel value"
            --fuel=99999999999999999999 nop)
expect_fail(bad-deadline-zero "bad --deadline-ms value" --deadline-ms=0 nop)
expect_fail(bad-deadline-huge "bad --deadline-ms value"
            --deadline-ms=9999999999 nop)
expect_fail(bad-deadline-text "bad --deadline-ms value"
            --deadline-ms=soon nop)
expect_fail(bad-depth-zero "bad --max-call-depth value"
            --max-call-depth=0 nop)
expect_fail(bad-pages-zero "bad --max-pages value" --max-pages=0 nop)
expect_fail(bad-pages-huge "bad --max-pages value" --max-pages=65537 nop)
expect_fail(bad-table-elems "bad --max-table-elems value"
            --max-table-elems=0 nop)
# 2^32 used to truncate to 0, which means no cap at all.
expect_fail(bad-table-elems-wrap "bad --max-table-elems value"
            --max-table-elems=4294967296 nop)
# Every numeric flag goes through the one strict parser: no sign. The
# --jobs/--queue-cap cases are rejected while parsing, before any worker
# starts.
expect_fail(bad-queue-cap-sign "bad --queue-cap value" --queue-cap=+5)
expect_fail(bad-deadline-sign "bad --deadline-ms value" --deadline-ms=+5 nop)
expect_fail(bad-depth-sign "bad --max-call-depth value"
            --max-call-depth=+5 nop)
expect_fail(bad-pages-sign "bad --max-pages value" --max-pages=+5 nop)
expect_fail(bad-jobs-sign "bad --jobs value" --batch=m.txt --jobs=+5)
expect_fail(bad-queue-cap "bad --queue-cap value" --queue-cap=0)
expect_fail(queue-cap-without-serve "--queue-cap requires --serve"
            --queue-cap=8 nop)
expect_fail(batch-fuel-conflict "mutually exclusive.*--fuel"
            --batch=m.txt --fuel=100)
expect_fail(batch-deadline-conflict "mutually exclusive.*--deadline-ms"
            --batch=m.txt --deadline-ms=100)
expect_fail(batch-serve-conflict "mutually exclusive.*--serve"
            --batch=m.txt --serve)
expect_fail(audit-fuel-conflict "mutually exclusive.*--fuel"
            --audit --fuel=100 nop)
expect_fail(serve-tier-conflict "mutually exclusive.*--tier"
            --serve --tier=int)
expect_fail(serve-module-conflict "mutually exclusive.*<module>"
            --serve nop)
expect_fail(serve-stats-conflict "mutually exclusive.*--stats"
            --serve --stats)
expect_fail(serve-flag-value "unknown option" --serve=1 nop)
# A metered run that exhausts its budget exits through the trap path (3),
# with the fuel trap on stderr.
execute_process(
  COMMAND ${WISP_BIN} --tier=spc --fuel=5 ostrich/crc
  OUTPUT_QUIET ERROR_VARIABLE ERR RESULT_VARIABLE RC)
if(NOT RC EQUAL 3 OR NOT ERR MATCHES "trap: fuel exhausted")
  message(FATAL_ERROR "--fuel=5 run should trap (rc=${RC}): ${ERR}")
endif()
# A roomy budget composes with a normal run.
execute_process(
  COMMAND ${WISP_BIN} --tier=spc --fuel=100000000 --deadline-ms=60000
          --max-call-depth=1000 --max-pages=256 nop
  OUTPUT_VARIABLE OUT RESULT_VARIABLE RC)
if(NOT RC EQUAL 0 OR NOT OUT MATCHES "run\\(\\) = ")
  message(FATAL_ERROR "governed single-module run failed (rc=${RC}): ${OUT}")
endif()

# --- Serve mode end to end: accepted jobs answer exactly once, malformed
# --- job lines reject, `shutdown` drains. Driven through stdin via a
# --- manifest-like input file.
set(SERVE_IN ${CMAKE_CURRENT_BINARY_DIR}/cli_errors_serve_in.txt)
file(WRITE ${SERVE_IN}
  "nop tier=spc id=a\n"
  "nop frobnicate=1\n"
  "ostrich/crc tier=spc fuel=5 id=metered\n"
  "shutdown\n"
  "nop tier=spc id=never\n")
execute_process(
  COMMAND ${WISP_BIN} --serve --jobs=2
  INPUT_FILE ${SERVE_IN}
  OUTPUT_VARIABLE OUT RESULT_VARIABLE RC)
file(REMOVE ${SERVE_IN})
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "serve session failed (rc=${RC}): ${OUT}")
endif()
if(NOT OUT MATCHES "done a = <void>")
  message(FATAL_ERROR "serve: missing done line for job a: ${OUT}")
endif()
if(NOT OUT MATCHES "reject - parse: .*unknown key")
  message(FATAL_ERROR "serve: malformed line not rejected: ${OUT}")
endif()
if(NOT OUT MATCHES "done metered trap: fuel exhausted")
  message(FATAL_ERROR "serve: metered job did not trap: ${OUT}")
endif()
if(OUT MATCHES "done never")
  message(FATAL_ERROR "serve: job after shutdown was admitted: ${OUT}")
endif()
if(NOT OUT MATCHES "# serve: drained, 2 accepted, 1 rejected")
  message(FATAL_ERROR "serve: summary mismatch: ${OUT}")
endif()

# --- Module and export resolution ---
expect_fail(no-module "no module given" --tier=spc)
expect_fail(missing-module "cannot resolve module" /no/such/file.wasm)
# A directory is not a module or a manifest; reading one used to abort.
get_filename_component(HERE ${CMAKE_SCRIPT_MODE_FILE} DIRECTORY)
expect_fail(directory-module "cannot resolve module" ${HERE})
expect_fail(directory-manifest "cannot read manifest" --batch=${HERE})
expect_fail(unknown-export "no exported function" --invoke=nonesuch nop)

# --- Out-of-range argument parsing, against the corpus gcd reproducer's
# --- (i32, i32) signature so parsing (not arity) is what fails.
if(NOT WISP_CORPUS)
  message(FATAL_ERROR "pass -DWISP_CORPUS=<path to tests/corpus>")
endif()
set(GCD ${WISP_CORPUS}/alias-gcd.wasm)
# i32 overflow: one past UINT32_MAX must be rejected, not truncated.
expect_fail(i32-overflow "cannot parse argument"
            --tier=spc --invoke=gcd ${GCD} 4294967296 1)
# Signed underflow below INT32_MIN.
expect_fail(i32-underflow "cannot parse argument"
            --tier=spc --invoke=gcd ${GCD} -2147483649 1)
# Trailing junk after a number.
expect_fail(arg-junk "cannot parse argument"
            --tier=spc --invoke=gcd ${GCD} 12x 1)
# Arity mismatch in both directions.
expect_fail(too-many-args "takes" --tier=spc nop 1 2)
expect_fail(too-few-args "takes" --tier=spc --invoke=gcd ${GCD} 3528)
# The full-range boundary values themselves must parse and run.
execute_process(
  COMMAND ${WISP_BIN} --tier=spc --invoke=gcd ${GCD} 3528 3780
  OUTPUT_VARIABLE OUT
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0 OR NOT OUT MATCHES "= 252:i32")
  message(FATAL_ERROR "gcd(3528, 3780) run failed (rc=${RC}): ${OUT}")
endif()

# --- Hostile module: a br_table count of 0xffffffff in a 42-byte module is
# --- a load error (exit 1 with a diagnostic), never an abort. A signal
# --- shows up as a non-numeric RESULT_VARIABLE, which fails EQUAL 1.
set(HUGE_BRTABLE ${HERE}/data/brtable-huge-count.wasm)
expect_fail(brtable-huge-count "load failed: .*br_table.*exceeds"
            ${HUGE_BRTABLE})
execute_process(
  COMMAND ${WISP_BIN} ${HUGE_BRTABLE}
  OUTPUT_QUIET ERROR_QUIET
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 1)
  message(FATAL_ERROR "brtable-huge-count: expected exit 1, got '${RC}'")
endif()

message(STATUS "cli_errors: all error paths diagnosed correctly")

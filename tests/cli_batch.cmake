# tests/cli_batch.cmake - ctest for wisp --batch.
#
# End-to-end batch mode: a >= 20-job manifest over the fig. 7 suites runs
# on 1 and 8 workers and must print byte-identical per-job report lines
# ('#'-prefixed summary lines carry wall times and are stripped first).
# Also covers the malformed-manifest diagnostics. Invoked as:
#   cmake -DWISP_BIN=<wisp> -DWISP_WORKDIR=<dir> -P cli_batch.cmake

if(NOT WISP_BIN)
  message(FATAL_ERROR "pass -DWISP_BIN=<path to the wisp binary>")
endif()
if(NOT WISP_WORKDIR)
  message(FATAL_ERROR "pass -DWISP_WORKDIR=<scratch directory>")
endif()

# --- A deterministic >= 20-job manifest over the fig. 7 suites ---
set(MANIFEST ${WISP_WORKDIR}/cli_batch_manifest.txt)
file(WRITE ${MANIFEST} "# cli_batch determinism manifest\n")
foreach(item
    polybench/2mm polybench/3mm polybench/atax polybench/bicg
    polybench/gemm polybench/mvt polybench/syrk
    libsodium/stream_chacha20 libsodium/stream_salsa20
    libsodium/onetimeauth_poly1305 libsodium/shorthash_siphash24
    libsodium/stream_xor_1k
    ostrich/crc ostrich/nqueens ostrich/fft)
  file(APPEND ${MANIFEST} "${item} tier=spc\n")
endforeach()
foreach(item ostrich/crc libsodium/stream_chacha20 polybench/atax)
  file(APPEND ${MANIFEST} "${item} tier=threaded\n")
  file(APPEND ${MANIFEST} "${item} config=wizard-tiered\n")
endforeach()
file(APPEND ${MANIFEST} "nop\n")

function(run_batch jobs outvar rawvar)
  execute_process(
    COMMAND ${WISP_BIN} --batch=${MANIFEST} --jobs=${jobs} ${ARGN}
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR
    RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "--batch --jobs=${jobs} ${ARGN} failed (rc=${RC}):\n${OUT}${ERR}")
  endif()
  set(${rawvar} "${OUT}" PARENT_SCOPE)
  # Strip the '#'-prefixed summary lines (wall time, throughput, cache).
  string(REGEX REPLACE "(^|\n)#[^\n]*" "" OUT "${OUT}")
  set(${outvar} "${OUT}" PARENT_SCOPE)
endfunction()

run_batch(1 REPORT1 RAW1)
run_batch(8 REPORT8 RAW8)
if(NOT REPORT1 STREQUAL REPORT8)
  message(FATAL_ERROR
    "batch report differs between --jobs=1 and --jobs=8:\n--- jobs=1\n"
    "${REPORT1}\n--- jobs=8\n${REPORT8}")
endif()

# --- Compile cache: the default run reports nonzero hits (the manifest
# --- repeats suite items under identical configs), and disabling the
# --- cache must not change a single per-job byte.
if(NOT RAW8 MATCHES "# cache: [1-9][0-9]* hits")
  message(FATAL_ERROR "default batch summary reports no cache hits:\n${RAW8}")
endif()
run_batch(8 REPORT_NOCACHE RAW_NOCACHE --no-compile-cache)
if(NOT RAW_NOCACHE MATCHES "# cache: disabled")
  message(FATAL_ERROR
    "--no-compile-cache summary does not say disabled:\n${RAW_NOCACHE}")
endif()
if(NOT REPORT8 STREQUAL REPORT_NOCACHE)
  message(FATAL_ERROR
    "batch report differs between default and --no-compile-cache:\n"
    "--- default\n${REPORT8}\n--- no-compile-cache\n${REPORT_NOCACHE}")
endif()
# --- The '# disk:' summary reports what the job engines did: a cache
# --- directory that cannot be created (its parent is a regular file)
# --- opens no disk level, so the summary says disabled, not 0/0.
set(NOT_A_DIR ${WISP_WORKDIR}/cli_batch_not_a_dir)
file(WRITE ${NOT_A_DIR} "")
run_batch(2 REPORT_NODISK RAW_NODISK --cache-dir=${NOT_A_DIR}/cache)
file(REMOVE ${NOT_A_DIR})
if(NOT RAW_NODISK MATCHES "# disk: disabled")
  message(FATAL_ERROR
    "unopenable --cache-dir summary does not say disabled:\n${RAW_NODISK}")
endif()
if(NOT REPORT1 STREQUAL REPORT_NODISK)
  message(FATAL_ERROR "batch report differs with an unopenable --cache-dir")
endif()
string(REGEX MATCHALL "\\[[0-9]+\\]" JOBLINES "${REPORT1}")
list(LENGTH JOBLINES NJOBS)
if(NJOBS LESS 20)
  message(FATAL_ERROR "expected >= 20 job lines, got ${NJOBS}:\n${REPORT1}")
endif()
# Spot-check: the same item on two tiers computed the same value.
if(NOT REPORT1 MATCHES "\\[15\\] ostrich/crc interp-threaded run\\(\\) = ")
  message(FATAL_ERROR "missing threaded crc job line:\n${REPORT1}")
endif()

# --- Malformed manifests are diagnosed with line numbers ---
function(expect_batch_fail name manifest_text pattern)
  set(BAD ${WISP_WORKDIR}/cli_batch_bad.txt)
  file(WRITE ${BAD} "${manifest_text}")
  execute_process(
    COMMAND ${WISP_BIN} --batch=${BAD}
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

expect_batch_fail(bad-key "nop frobnicate=1\n" "unknown key")
expect_batch_fail(bad-tier-config "nop\nnop tier=int config=wizard-spc\n"
                  "line 2: tier= and config= are mutually exclusive")
expect_batch_fail(bad-scale "nop scale=0\n" "bad scale")
expect_batch_fail(bad-tier "nop tier=warp\n" "unknown tier")
expect_batch_fail(bad-config "nop config=nonesuch\n" "unknown config")
expect_batch_fail(bad-module "no/such-item\n" "cannot resolve module")
expect_batch_fail(empty-manifest "# nothing\n" "no jobs")

# Missing manifest file.
execute_process(
  COMMAND ${WISP_BIN} --batch=${WISP_WORKDIR}/no_such_manifest.txt
  OUTPUT_QUIET ERROR_VARIABLE ERR RESULT_VARIABLE RC)
if(RC EQUAL 0 OR NOT ERR MATCHES "cannot read manifest")
  message(FATAL_ERROR "missing manifest not diagnosed (rc=${RC}): ${ERR}")
endif()

message(STATUS "cli_batch: deterministic across worker counts (${NJOBS} jobs)")

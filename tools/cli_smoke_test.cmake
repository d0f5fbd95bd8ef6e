# Drives the sarn CLI through its full pipeline and fails on any error.
file(MAKE_DIRECTORY ${WORK_DIR})
function(run_step)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "step failed (${code}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()
# Runs a command that must fail with the given exit status: 2 for a usage
# error, 1 for a runtime failure.
function(expect_exit expected)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
  if(NOT code EQUAL expected)
    message(FATAL_ERROR "expected exit ${expected}, got ${code}: ${ARGN}")
  endif()
endfunction()
file(REMOVE ${WORK_DIR}/metrics.jsonl ${WORK_DIR}/trace.json)
expect_exit(2 ${SARN_CLI} no-such-command)
expect_exit(2 ${SARN_CLI} train --bogus 1)
expect_exit(2 ${SARN_CLI} train)
expect_exit(2 ${SARN_CLI} train --network ${WORK_DIR}/net.csv --log-level loud)
expect_exit(1 ${SARN_CLI} train --network ${WORK_DIR}/missing.csv)
run_step(${SARN_CLI} generate --city SF --scale 0.015 --out ${WORK_DIR}/net.csv)
run_step(${SARN_CLI} train --network ${WORK_DIR}/net.csv --epochs 2 --dim 16
         --weights ${WORK_DIR}/model.ckpt --embeddings ${WORK_DIR}/emb.csv
         --metrics-file ${WORK_DIR}/metrics.jsonl
         --trace-file ${WORK_DIR}/trace.json)
run_step(${SARN_CLI} export --network ${WORK_DIR}/net.csv
         --embeddings ${WORK_DIR}/emb.csv --out ${WORK_DIR}/atlas.geojson)
run_step(${SARN_CLI} eval --network ${WORK_DIR}/net.csv
         --embeddings ${WORK_DIR}/emb.csv --task property)
# Telemetry artifacts must parse: the JSONL metrics file line-by-line, the
# Chrome trace as one JSON document.
run_step(${SARN_CLI} check-json --in ${WORK_DIR}/metrics.jsonl --lines true)
run_step(${SARN_CLI} check-json --in ${WORK_DIR}/trace.json)
foreach(artifact net.csv model.ckpt emb.csv atlas.geojson metrics.jsonl trace.json)
  if(NOT EXISTS ${WORK_DIR}/${artifact})
    message(FATAL_ERROR "missing artifact ${artifact}")
  endif()
endforeach()
# `train --weights` output feeds `snapshot save --checkpoint`: the snapshot
# rebuilt from the weights must serve the same neighbours as the one built
# from the embeddings CSV of the same run.
run_step(${SARN_CLI} snapshot save --checkpoint ${WORK_DIR}/model.ckpt
         --network ${WORK_DIR}/net.csv --dim 16 --out ${WORK_DIR}/weights.sarnsnap)
run_step(${SARN_CLI} snapshot save --embeddings ${WORK_DIR}/emb.csv
         --out ${WORK_DIR}/emb.sarnsnap)
foreach(source weights emb)
  execute_process(COMMAND ${SARN_CLI} snapshot load --in ${WORK_DIR}/${source}.sarnsnap
                          --query-id 0 --k 5
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "snapshot load ${source} failed (${code}): ${out}\n${err}")
  endif()
  string(REGEX MATCHALL "neighbor [0-9]+" neighbors_${source} "${out}")
  list(LENGTH neighbors_${source} neighbor_count)
  if(NOT neighbor_count EQUAL 5)
    message(FATAL_ERROR "expected 5 neighbours from ${source}.sarnsnap, got: ${out}")
  endif()
endforeach()
if(NOT neighbors_weights STREQUAL neighbors_emb)
  message(FATAL_ERROR "weights snapshot neighbours (${neighbors_weights}) differ "
                      "from embeddings snapshot neighbours (${neighbors_emb})")
endif()
# One epoch record per trained epoch.
file(STRINGS ${WORK_DIR}/metrics.jsonl metric_lines REGEX "\"event\":\"epoch\"")
list(LENGTH metric_lines epoch_lines)
if(NOT epoch_lines EQUAL 2)
  message(FATAL_ERROR "expected 2 epoch records in metrics.jsonl, got ${epoch_lines}")
endif()
# Serve smoke: pipe NDJSON queries (by id, by vector dim-16, by lat/lng)
# through `sarn serve`; every response line must be valid JSON and ok:true.
file(WRITE ${WORK_DIR}/queries.ndjson
  "{\"op\":\"query\",\"id\":0,\"k\":3}\n"
  "{\"vector\":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\"k\":2}\n"
  "{\"op\":\"query\",\"lat\":37.76,\"lng\":-122.44,\"k\":2}\n")
execute_process(
  COMMAND ${SARN_CLI} serve --embeddings ${WORK_DIR}/emb.csv
          --network ${WORK_DIR}/net.csv --threads 2
  INPUT_FILE ${WORK_DIR}/queries.ndjson
  OUTPUT_FILE ${WORK_DIR}/responses.ndjson
  ERROR_VARIABLE serve_err RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "serve failed (${code}): ${serve_err}")
endif()
run_step(${SARN_CLI} check-json --in ${WORK_DIR}/responses.ndjson --lines true)
file(STRINGS ${WORK_DIR}/responses.ndjson ok_lines REGEX "\"ok\":true")
list(LENGTH ok_lines ok_count)
if(NOT ok_count EQUAL 3)
  message(FATAL_ERROR "expected 3 ok serve responses, got ${ok_count}")
endif()

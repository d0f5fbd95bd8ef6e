#!/bin/bash
for b in bench_table3_datasets bench_fig4_learning_time bench_table4_road_property bench_table6_spd bench_table5_traj_similarity bench_table7_traj_length bench_table8_network_size bench_fig5_ablation bench_fig6_params bench_ext_travel_time bench_ablation_design; do
  echo "== $b start $(date +%T)"
  ./build/bench/$b > bench_out/$b.txt 2>&1
  echo "== $b done $(date +%T)"
done
./build/bench/bench_micro_kernels --benchmark_min_time=0.2s > bench_out/bench_micro_kernels.txt 2>&1
echo "== bench_serve_loadgen start $(date +%T)"
SARN_SERVE_JSON=bench_out/BENCH_serve.json \
SARN_SNAPSHOT_JSON=bench_out/BENCH_snapshot.json \
SARN_OBS_JSON=bench_out/BENCH_obs.json \
  ./build/bench/bench_serve_loadgen > bench_out/bench_serve_loadgen.txt 2>&1
echo "== bench_serve_loadgen done $(date +%T)"
echo ALL-DONE

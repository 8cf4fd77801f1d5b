"""Run every paper experiment at full scale and dump the renderings.

The experiments are grids over the same two traces and they overlap, so
the artifact store is on: a cell an earlier figure replayed is loaded,
and a second invocation on unchanged code loads all of them
(``rm -r .repro-cache`` forces replays).
"""
import sys, time
from repro.experiments.figures import figure3, figure4, figure5, figure6, figure7, beta_sweep
from repro.experiments.runner import cell_store, set_default_artifact_dir
from repro.experiments.spec import DEFAULT_CACHE_DIR
from repro.experiments.tables import table2

set_default_artifact_dir(DEFAULT_CACHE_DIR)

def emit(text):
    print(text, flush=True)

t0 = time.time()
emit("=== Full-scale experiment suite (scale=1.0, seed=7) ===")
emit("\n--- Figure 3 ---"); emit(figure3(scale=1.0).text)
emit("\n--- Figure 4 ---")
for p in figure4(scale=1.0).values(): emit(p.text + "\n")
emit("\n--- Table 2 ---"); emit(table2(scale=1.0).text)
emit("\n--- Figure 5 ---")
for p in figure5(scale=1.0).values(): emit(p.text + "\n")
emit("\n--- Figure 6 ---")
for p in figure6(scale=1.0).values(): emit(p.text + "\n")
emit("\n--- Figure 7 ---")
for p in figure7(scale=1.0).values(): emit(p.text + "\n")
emit("\n--- beta sweep (NEWS) ---"); emit(beta_sweep(scale=1.0).text)
emit("\n--- beta sweep (ALTERNATIVE) ---"); emit(beta_sweep(scale=1.0, trace="alternative").text)
cells = cell_store(DEFAULT_CACHE_DIR)
emit(f"\ncells: {cells.hits + cells.misses} asked, {cells.misses} replayed, {cells.hits} loaded")
emit(f"total wall time: {time.time()-t0:.0f}s")

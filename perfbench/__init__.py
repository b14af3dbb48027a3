"""End-to-end and per-layer benchmark of brolip; run `python3 perfbench/run.py -h`."""

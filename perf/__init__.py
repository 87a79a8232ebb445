"""The pipeline benchmark: see perf/README.md."""

"""The repository's timing benchmark (see README.md and ../BENCHMARK.json)."""

"""The repository benchmark: three workloads and a traced per-layer run (see README.md)."""

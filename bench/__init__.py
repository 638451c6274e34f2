"""The repository benchmark: six closed-loop workloads measured from
outside the engine (see ``bench/README.md``).

Run as ``python -m bench`` from the repository root.  Nothing here is
imported by ``src/``; the benchmark only calls the engine's public
functions and reads ``db.stats``.
"""

"""Concurrency-correctness analysis suite.

Three layers of machine enforcement for the protocols the paper states
only in prose (§2.1, §4, and the WAL rule), which were previously
re-verified by eyeball on every PR:

- :mod:`repro.analysis.lint` — repo-specific AST lint (rules
  RPR001–RPR005) over the real source: latch/fix pairing, no blocking
  calls under a latch, ``page_lsn`` stamping, lock-mode constants, and
  no swallowed ``LatchError``/``CommitNotDurableError``.  Run as
  ``python -m repro.analysis lint src/``.
- :mod:`repro.analysis.lockgraph` — opt-in runtime instrumentation of
  :class:`~repro.storage.latch.Latch` recording the acquired-while-held
  graph per thread, with cycle detection over the merged graph.  The
  torture harness enables it, turning every seed sweep into a
  deadlock-freedom proof of §4's latch orderings.
- :mod:`repro.analysis.walcheck` — offline WAL verifier replaying a
  log's records and checking LSN monotonicity, ``prev_lsn`` /
  ``prev_page_lsn`` chain integrity, CLR undo-next termination,
  PREPARE→COMMIT/ABORT→END ordering, and purge-record framing.  Run as
  ``python -m repro.analysis walcheck <log-file>``.
"""

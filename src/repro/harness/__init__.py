"""Experiment harness: workloads, lock audits, interleaving counts,
fault/crash torture rounds."""

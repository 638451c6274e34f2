"""Shared infrastructure: errors, config, keys, RIDs, stats, failpoints."""

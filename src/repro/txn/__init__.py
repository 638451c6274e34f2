"""Transactions: state, resource-manager dispatch, commit/rollback."""

"""Host and code identity for timing artifacts (see :mod:`repro.bench.harness`)."""

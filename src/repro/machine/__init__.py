"""Machine descriptions (HPL-PD/Playdoh stand-in): units, widths, latencies.

Machines exist in two forms: the declarative, serialisable
:class:`~repro.machine.spec.MachineSpec` (canonical JSON/TOML form,
content-hash ``fingerprint()``) and the runtime
:class:`~repro.machine.description.MachineDescription` that the
schedulers and engines consume (``spec.build()`` / ``machine.spec()``
convert losslessly).  The registry in :mod:`repro.machine.configs` holds
the predefined configurations; :func:`~repro.machine.configs.by_name` resolves registry names
or spec-file paths.
"""

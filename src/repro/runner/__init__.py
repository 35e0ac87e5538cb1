"""Serial, disk-cached experiment execution engine.

The runner turns the profile -> compile -> simulate pipeline into an
explicit job graph (:mod:`repro.runner.jobs`, :mod:`repro.runner.graph`)
and executes it in process, with durable content-addressed caching
(:mod:`repro.runner.cache`) and structured progress events
(:mod:`repro.runner.events`).  See ``docs/RUNNER.md`` for the full
design.

Typical use::

    from repro.runner.cache import DiskCache
    from repro.runner.executor import Runner
    from repro.evaluation.experiment import Evaluation

    runner = Runner(cache=DiskCache())
    evaluation = Evaluation(runner=runner)
    evaluation.warm()                      # run the whole job graph once
    rows = table2.compute(evaluation)      # served from the warmed caches
"""

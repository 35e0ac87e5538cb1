"""Region enlargement: loop unrolling with register renaming.

The paper closes by expecting larger scheduling regions (superblocks,
hyperblocks) to amplify value prediction's benefit.  These transforms
let the experiments quantify that on the synthetic suite.
"""

"""The kernel layer: the hot numeric loops as plain functions.

The paper's query cost concentrates in a handful of tight numeric loops —
the Definition 10/11 bound-reference scans, the Algorithm-2 /
Proposition-5 pruning bounds, the refine sweep ``RF``, and the hoplink
concatenation scan.  This package isolates those loops as *kernels* in
:mod:`repro.core.kernels.reference`: pure functions over the
``mu``/``sigma``/``sigma^2``/``ub``/``lb`` columns of
:mod:`repro.core.labelstore`, and the semantic ground truth of every
answer.

Label sets hold a handful of paths (perfbench's ``labelstore.k_p99`` is
4–5), so the loops stay in plain Python: an earlier numpy kernel set won
only at k = 64–1024 and made every real query ~10x slower.

Layering: kernels are a numeric leaf *below* the storage layer — they
may import ``repro.stats`` and nothing else of the tree (enforced by
nrplint NRP001), and every function in the kernel module must be pure
(NRP006).  Observability counters for kernel calls are therefore
emitted by the *callers* (engine/refine/labelstore), never from inside
a kernel.
"""

from __future__ import annotations

__all__ = ["BACKEND"]

#: The kernel set's name as the wire reports it (``ping``, query replies,
#: flight records, slow-query lines).  Flight and workload files that say
#: ``vector`` come from builds that had a numpy kernel set; their answers
#: were bit-identical, so they load and replay unchanged.
BACKEND = "python"

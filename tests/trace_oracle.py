"""The regular trace form by its definition, a reference for
:func:`gradedbrauer.algebra.trace_gram`.

``tr(L_x)`` on the span ``B`` of some basis indices is the sum, over
each index ``c`` of ``B``, of the coefficient at ``c`` of ``x e_c``.  So
``tr(L_{e_i e_j})`` is read off :meth:`GradedAlgebra.basis_product`
alone: the product ``e_i e_j = sum_m x_m e_m``, then each ``e_m e_c``.
It shares no code with either path of the library, neither the
group-law read nor the scan of targets.
"""


def trace_gram_by_definition(a, indices=None):
    """``{i: {j: tr(L_{e_i e_j})}}`` over the span of ``indices`` (the
    whole basis when ``None``), holding only the nonzero entries."""
    keep = range(a.dim) if indices is None else indices
    gram = {}
    for i in keep:
        for j in keep:
            trace = 0
            for m, x in a.basis_product(i, j).items():
                for c in keep:
                    if y := a.basis_product(m, c).get(c):
                        trace = trace + x * y
            if trace:
                gram.setdefault(i, {})[j] = trace
    return gram

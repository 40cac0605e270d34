"""Homological algebra for the module representations.

Everything is driven by minimal projective covers.  The cover of a module
is read off its top (the quotient by all arrows and t); the syzygy is the
kernel of the cover map, computed vertexwise over the power-series centre
with saturated free bases.  Hom spaces and first extension groups come
from the start of the projective resolution

    P1 -> P0 -> M -> 0,

since Hom out of an indecomposable projective is evaluation at its
generator: no linear systems are needed to write the induced maps between
Hom(P_i, N), only to extract kernels and cokernels over the centre.
P1 -> P0 is the cover of the syzygy followed by its embedding, so the
syzygy of a module is computed once and cached on the module: Hom, Ext,
extension middles and orbit steps all read that one cache.
Hom(M, N) is the kernel of the map Hom(P0, N) -> Hom(P1, N): the Hom
condition, imposed only at the syzygy's top generators, which generate
it.  Ext^1(M, N) is the torsion of its cokernel, read off the one
certified Smith form that ``hom_space`` and ``is_isomorphic`` factor too;
an extension's classes are lifted off its row transform, with no second step.
Writing out a Hom basis or an extension middle vertexwise does solve
linear systems; each function factors every matrix it solves against once
and solves all of its right-hand sides from that one factorisation.

Every computed module and Hom basis carries a precision floor (see
``dvr``), and every rank that theory fixes is checked with
``Smith.certify``: a step short of precision raises TruncationUnstable.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import permutations
from typing import Optional, Sequence

from .dvr import Coeff, DVRMatrix, Smith, ValPoly, _reciprocal, _smith
from .errors import ProjectiveInput, TruncationUnstable
from .modules import (CMModuleRep, Profile, build_rank1, default_truncation,
                      direct_sum, per_rotation_class, rep_a_vector)
from .rims import Rim, peaks, two_layer_splits

def top_generators(m: CMModuleRep) -> tuple[tuple[int, int], ...]:
    """The standard basis vectors spanning the top, as (vertex, index) pairs.

    At vertex v the top is the cokernel of [x_v | y_{v+1}] taken modulo t
    (see ``_top_generators``).  The list is cached on the root, by vertex; a
    view relabels its root's and keeps its order, which is the order of the
    cover its syzygy data relabels (``SyzygyData.rotate``).
    """
    root, j = m.unrotated()
    top = getattr(root, "_top", None)
    if top is None:
        top = root._top = tuple((v, idx) for v in range(1, m.n + 1)
                                for idx in _top_generators(root, v))
    return tuple(((v + j - 1) % m.n + 1, idx) for v, idx in top)


def top_multiset(m: CMModuleRep) -> dict[int, int]:
    """Multiplicity of each vertex in the top of the module."""
    return dict(Counter(v for v, _ in top_generators(m)))


def _top_generators(m: CMModuleRep, v: int) -> list[int]:
    """Indices of the standard basis vectors of M_v that span its top.

    The columns of [x_v | y_{v+1}] mod t are put into one running echelon
    form, and each e_i in turn is kept when it is not in the span so far.
    """
    nxt = v % m.n + 1
    echelon: dict[int, list[Coeff]] = {}   # pivot index -> vector, 1 there

    def absorb(vec: Sequence[Coeff]) -> bool:
        vec = list(vec)
        for p, basis in echelon.items():
            c = vec[p]
            if c:
                vec = [a - c * b for a, b in zip(vec, basis)]
        lead = next((i for i, c in enumerate(vec) if c), None)
        if lead is None:
            return False
        inv = _reciprocal(vec[lead])
        echelon[lead] = [c * inv for c in vec]
        return True

    for mat in (m.x[v], m.y[nxt]):
        for col in zip(*mat.mod_t()):
            absorb(col)
    chosen = []
    for idx in range(m.s):
        if len(echelon) == m.s:
            break
        if absorb([1 if i == idx else 0 for i in range(m.s)]):
            chosen.append(idx)
    return chosen


class Cover:
    """Minimal projective cover data: one summand per top generator."""

    __slots__ = ("vertices", "eps")

    def __init__(self, vertices: tuple[int, ...], eps: dict[int, DVRMatrix]) -> None:
        self.vertices = vertices  # cover vertex of each summand
        self.eps = eps            # vertex w -> s x c evaluation matrix

    @property
    def size(self) -> int:
        return len(self.vertices)

    def rotate(self, j: int, n: int) -> "Cover":
        """The cover of the module rotated by j: the same summands, relabelled."""
        turn = {v: (v + j - 1) % n + 1 for v in range(1, n + 1)}
        return Cover(tuple(turn[v] for v in self.vertices),
                     {turn[w]: e for w, e in self.eps.items()})


def _root_cover(m: CMModuleRep) -> Cover:
    """m's ``projective_cover``, computed once per root and cached there."""
    root, j = m.unrotated()
    if getattr(root, "_cover", None) is None:
        root._cover = projective_cover(root)
    return root._cover.rotate(j, m.n) if j else root._cover


def projective_cover(m: CMModuleRep) -> Cover:
    """Minimal cover: projectives at the top vertices, in ``top_generators``
    order, mapped by evaluation."""
    gens = top_generators(m)
    eps = {w: DVRMatrix.from_columns([m.path_matrix(v, w).column(idx) for v, idx in gens],
                                     m.s, m.trunc)
           for w in range(1, m.n + 1)}
    return Cover(tuple(v for v, _ in gens), eps)


class SyzygyData:
    """Kernel of the cover map with its embedding into the cover.

    For a projective module the cover map is an isomorphism: ``omega`` is
    None and ``embed`` is empty.
    """

    __slots__ = ("cover", "omega", "embed")

    def __init__(self, cover: Cover, omega: Optional[CMModuleRep],
                 embed: dict[int, DVRMatrix]) -> None:
        self.cover = cover
        self.omega = omega  # kernel, in its own coordinates
        self.embed = embed  # vertex -> cover-size x omega-rank basis

    def rotate(self, j: int, n: int) -> "SyzygyData":
        """The syzygy data of the module rotated by j: labels moved, omega a view."""
        turn = {v: (v + j - 1) % n + 1 for v in range(1, n + 1)}
        return SyzygyData(self.cover.rotate(j, n),
                          None if self.omega is None else self.omega.rotate(j),
                          {turn[w]: e for w, e in self.embed.items()})


def syzygy_data(m: CMModuleRep) -> SyzygyData:
    """The syzygy as an explicit submodule of the cover.

    The result is cached on the module, which is immutable, so every
    caller shares one computation per module object; a view (see
    ``CMModuleRep.rotate``) caches its root's, relabelled.  The cover map
    is surjective, so its factorisations have unit pivots, lose no
    precision, and the syzygy keeps the module's floor.
    """
    try:
        return m._syzygy
    except AttributeError:
        pass
    root, j = m.unrotated()
    if j:
        m._syzygy = syzygy_data(root).rotate(j, m.n)
        return m._syzygy
    cover = _root_cover(m)
    c = cover.size
    if c == m.s:
        m._syzygy = SyzygyData(cover, None, {})
        return m._syzygy
    n, trunc = m.n, m.trunc
    embed: dict[int, DVRMatrix] = {}
    smith: dict[int, Smith] = {}
    r = c - m.s
    for w in range(1, n + 1):
        sm = smith[w] = _smith(cover.eps[w], need_u=False)
        if sm.npivots != m.s or sm.loss:
            raise AssertionError(f"cover map not surjective at vertex {w}")
        embed[w] = sm.kernel()
        if embed[w].cols != r:
            raise AssertionError("kernel rank varies across vertices")
    x_omega, y_omega = {}, {}
    for v in range(1, n + 1):
        w = (v - 2) % n + 1
        x_omega[v] = _induced_map(m, cover, embed, smith, v, w, v, forward=True)
        y_omega[v] = _induced_map(m, cover, embed, smith, v, v, w, forward=False)
    m._syzygy = SyzygyData(cover, CMModuleRep(n, m.k, r, x_omega, y_omega, trunc, m.floor),
                           embed)
    return m._syzygy


def _cover_edge_scalars(m: CMModuleRep, cover: Cover, edge: int, forward: bool) -> list[ValPoly]:
    """Scalar action of one edge on each rank-1 cover summand."""
    out = []
    for v in cover.vertices:
        inside = (edge - v - 1) % m.n < m.k  # edge in the cyclic interval [v+1, v+k]
        if forward:
            out.append(ValPoly.one(m.trunc) if inside else ValPoly.t(m.trunc))
        else:
            out.append(ValPoly.t(m.trunc) if inside else ValPoly.one(m.trunc))
    return out


def _induced_map(m: CMModuleRep, cover: Cover, embed, smith, edge: int,
                 src: int, dst: int, forward: bool) -> DVRMatrix:
    """Restriction of a cover structure map to the kernel submodule."""
    scalars = _cover_edge_scalars(m, cover, edge, forward)
    src_mat = embed[src]
    moved = DVRMatrix(
        [[scalars[i] * src_mat.data[i][j] for j in range(src_mat.cols)]
         for i in range(src_mat.rows)], m.trunc, cols=src_mat.cols)
    return smith[dst].coordinates(moved, m.floor)


def syzygy(m: CMModuleRep) -> CMModuleRep:
    """Kernel of the minimal projective cover, with its induced action."""
    omega = syzygy_data(m).omega
    if omega is None:
        raise ProjectiveInput("projective module has vanishing stable syzygy")
    return omega


class ExtDecomp:
    """Cyclic decomposition of an extension group over the centre; equal and
    hashed on its exponents."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: tuple[int, ...]) -> None:
        self.exponents = exponents

    def __eq__(self, other):
        if other.__class__ is not ExtDecomp:
            return NotImplemented
        return self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash(self.exponents)

    @property
    def total_dim(self) -> int:
        return sum(self.exponents)

    def is_zero(self) -> bool:
        return not self.exponents

    def pretty(self) -> str:
        if not self.exponents:
            return "0"
        parts = ["C" if a == 1 else f"C[[t]]/(t^{a})" for a in self.exponents]
        return " ⊕ ".join(parts)


class HomBasis:
    """Free basis of a Hom space, as vertexwise matrices correct modulo t^floor."""

    __slots__ = ("generators", "floor")

    def __init__(self, generators: list[dict[int, DVRMatrix]], floor: int) -> None:
        self.generators, self.floor = generators, floor

    @property
    def z_rank(self) -> int:
        return len(self.generators)


def _relation_rows(m: CMModuleRep, n_rep: CMModuleRep) -> DVRMatrix:
    """The map Hom(P0, N) -> Hom(P1, N) of m's resolution P1 -> P0 -> m.

    Columns run over the pairs (i, b), coordinate b of the image xi_i in N
    of cover generator i.  Each top generator g of the syzygy, at vertex w,
    gives the rank(N) rows of sum_i g_i * paths[i] @ xi_i, with paths[i]
    N's path matrix from cover vertex i to w.
    """
    if (m.n, m.k) != (n_rep.n, n_rep.k) or m.trunc != n_rep.trunc:
        raise ValueError("modules must share ambient and truncation")
    syz, sN = syzygy_data(m), n_rep.s
    rows: list[list[ValPoly]] = []
    for w, idx in () if syz.omega is None else top_generators(syz.omega):
        g = syz.embed[w].column(idx)
        paths = [n_rep.path_matrix(v, w) for v in syz.cover.vertices]
        rows += [[g[i] * paths[i].data[a][b] for i in range(len(g)) for b in range(sN)]
                 for a in range(sN)]
    return DVRMatrix(rows, m.trunc, cols=syz.cover.size * sN)


def _hom_condition(m: CMModuleRep, n_rep: CMModuleRep,
                   need_u: bool = False) -> tuple[Smith, int]:
    """Factorisation of the condition for cover-generator images to define a
    map m -> n, and the condition's floor; its kernel's is ``loss`` less.
    The row transform U is kept only on request (see ``_extension_classes``).

    A map is determined by the images in n of m's cover generators, and it
    descends to m exactly when they kill the syzygy Omega, that is, when
    they kill Omega's top generators, which generate it (Nakayama).  So the
    condition is ``_relation_rows``: one block of rank(n) rows per top
    generator.  The block of p.g, for p a path from g's vertex v to w, is
    N's path matrix v -> w times g's block, as every path v -> w in the
    algebra is t^e times the canonical one; so the blocks of every basis
    vector of Omega at every vertex span the same row module as the
    generators', with the same Smith exponents and kernel.  The kernel is
    Hom(m, n), free of rank rank(m) * rank(n): over the fraction field a CM
    module of rank s is s copies of the one simple module (Jensen-King-Su
    2016).  So the condition has rank (c - rank(m)) * rank(n), certified
    against the floor: rows short of that rank raise TruncationUnstable.
    Its cokernel's torsion is Ext^1(m, n) (see ``_ext1_once``).
    """
    rows = _relation_rows(m, n_rep)
    floor = min(m.floor, n_rep.floor)
    sm = _smith(rows, need_u)
    sm.certify(floor, rows.cols - m.s * n_rep.s, f"Hom condition of ranks {m.s}, {n_rep.s}")
    return sm, floor


def _vertex_maps(cover: Cover, n_rep: CMModuleRep, images: DVRMatrix,
                 vertices: Sequence[int], floor: int) -> list[dict[int, DVRMatrix]]:
    """Vertex matrices, at each of ``vertices``, of the maps whose
    cover-generator images are the columns of ``images``, generator i's
    image in rows i*sN .. (i+1)*sN - 1, all correct modulo t^floor.

    At each vertex w a map f satisfies f eps_w = (paths[i] @ xi_i)_i; its
    transpose is solved for every map from one factorisation of the
    transposed cover evaluation.  The cover map has unit pivots (see
    ``syzygy_data``), so this loses nothing.
    """
    c, sN, trunc = cover.size, n_rep.s, n_rep.trunc
    ngen = images.cols
    maps: list[dict[int, DVRMatrix]] = [{} for _ in range(ngen)]
    xi = [DVRMatrix(images.data[i * sN:(i + 1) * sN], trunc, cols=ngen) for i in range(c)]
    for w in vertices:
        eps = cover.eps[w]
        paths = [n_rep.path_matrix(v, w) for v in cover.vertices]
        # one column per (map j, row a of f)
        moved = [paths[i] @ xi[i] for i in range(c)]
        rhs = DVRMatrix([[moved[i].data[a][j] for j in range(ngen) for a in range(sN)]
                         for i in range(c)], trunc, cols=ngen * sN)
        f_t = _smith(eps.transpose()).solve(rhs, floor)
        if f_t is None:
            raise TruncationUnstable(f"hom evaluation not solvable at vertex {w}")
        for j, f in enumerate(maps):
            f[w] = DVRMatrix([f_t.column(j * sN + a) for a in range(sN)], trunc,
                             cols=eps.rows)
    return maps


def hom_space(m: CMModuleRep, n_rep: CMModuleRep) -> HomBasis:
    """Module maps m -> n as a free module over the centre, of certified rank
    rank(m) * rank(n).

    The kernel of the Hom condition (``_hom_condition``) gives the images of
    the cover generators under each basis map, and ``_vertex_maps`` writes
    the maps out vertexwise.  The cover and the syzygy come from m's cached
    ``syzygy_data``.
    """
    sm, floor = _hom_condition(m, n_rep)
    floor -= sm.loss
    return HomBasis(_vertex_maps(syzygy_data(m).cover, n_rep, sm.kernel(),
                                 range(1, m.n + 1), floor), floor)


def _ext1_once(m: CMModuleRep, n_rep: CMModuleRep) -> tuple[int, ...]:
    """Exponents of Ext^1(m, n): the positive exponents of the Hom
    condition's Smith form, certified exact at the working truncation.

    The condition maps Hom(P0, N) into F = Hom(P1, N), P1 the cover of
    Omega.  Hom(Omega, N) is the kernel of a map of free modules, so it is
    saturated in F.  It holds the image L, whose certified rank
    (c - rank m) * rank N is its own, so it is L's saturation and
    tors(F / L) = Hom(Omega, N) / L = Ext^1(m, n).  ``_hom_condition``
    certifies every exponent below the floor, with no ``loss`` subtracted.
    """
    sm, _ = _hom_condition(m, n_rep)
    return tuple(e for e in sm.exponents if e > 0)


def ext1(m: CMModuleRep, n_rep: CMModuleRep) -> ExtDecomp:
    """Ext^1(m, n) as a product of cyclic modules over the centre.

    The exponents are read once, at the working truncation, off the Hom
    condition's Smith form, and certified there (see ``_ext1_once``): the
    answer is exact, or TruncationUnstable is raised.  Only m's first
    syzygy is needed; it and n's path matrices come from their roots'
    caches, shared by every rotation of a ``build_rank1`` module.
    """
    return ExtDecomp(_ext1_once(m, n_rep))


def ext1_rims(a: Rim, b: Rim, trunc: Optional[int] = None) -> ExtDecomp:
    """Ext^1 between two rank-1 modules given by rims."""
    return ext1(build_rank1(a, trunc), build_rank1(b, trunc))


def is_rigid(m: CMModuleRep) -> bool:
    """True when the module has no self-extensions."""
    return ext1(m, m).is_zero()


def _det_poly_mod_t(blocks: list[list[list[Fraction]]], s: int) -> dict[tuple[int, ...], Fraction]:
    """det(sum_g lambda_g * blocks[g]) mod t, as a polynomial in lambda."""
    def sign(perm: tuple[int, ...]) -> int:
        sgn, seen = 1, set()
        for start in range(len(perm)):
            if start in seen:
                continue
            length, i = 0, start
            while i not in seen:
                seen.add(i)
                i = perm[i]
                length += 1
            if length % 2 == 0:
                sgn = -sgn
        return sgn

    total: dict[tuple[int, ...], Fraction] = {}
    for perm in permutations(range(s)):
        sgn = sign(perm)
        prod: dict[tuple[int, ...], Fraction] = {(): Fraction(sgn)}
        for i in range(s):
            nxt: dict[tuple[int, ...], Fraction] = {}
            for mono, coeff in prod.items():
                for g, block in enumerate(blocks):
                    c = block[i][perm[i]]
                    if c:
                        key = tuple(sorted(mono + (g,)))
                        nxt[key] = nxt.get(key, Fraction(0)) + coeff * c
            prod = nxt
            if not prod:
                break
        for mono, coeff in prod.items():
            total[mono] = total.get(mono, Fraction(0)) + coeff
    return {mk: c for mk, c in total.items() if c != 0}


def is_isomorphic(m: CMModuleRep, n_rep: CMModuleRep) -> bool:
    """Module isomorphism test for equal-rank representations, exact on its own.

    Tops and a-vectors are isomorphism invariants, so modules that differ in
    either are not isomorphic; the top costs one echelon form mod t per
    vertex, the a-vector one Smith form per structure map, and both are
    cached on the module.  Modules that agree in both go to
    ``_isomorphic_given_a_vectors``.
    """
    if m is n_rep:
        return True
    if (m.n, m.k, m.s) != (n_rep.n, n_rep.k, n_rep.s):
        return False
    if top_multiset(m) != top_multiset(n_rep) or rep_a_vector(m) != rep_a_vector(n_rep):
        return False
    return _isomorphic_given_a_vectors(m, n_rep)


def _isomorphic_given_a_vectors(m: CMModuleRep, n_rep: CMModuleRep) -> bool:
    """Isomorphism test for modules of equal rank and equal a-vectors.

    With equal a-vectors, every map f: m -> n satisfies
    det f_i * det x_i^m = det x_i^n * det f_{i-1}, and val det x_i = s - a_i
    on both sides, so val det f_i is the same at every vertex.  A generic
    map is then an isomorphism exactly when det f_w is a unit at one vertex
    w: mod t, the determinant of a generic combination of the Hom basis maps
    at w is a nonzero polynomial in the combination coefficients.  The Hom
    condition is certified (see ``_hom_condition``), so its kernel is
    correct mod t and only vertex 1 is written out.
    """
    sm, floor = _hom_condition(m, n_rep)
    basis = _vertex_maps(syzygy_data(m).cover, n_rep, sm.kernel(), (1,), floor - sm.loss)
    return bool(_det_poly_mod_t([gen[1].mod_t() for gen in basis], m.s))


def generic_extension(top: Rim, bottom: Rim, trunc: Optional[int] = None,
                      weights: Optional[tuple[int, ...]] = None) -> CMModuleRep:
    """Middle term of a maximally nonsplit extension of the top rank-1
    module by the bottom one, as an explicit rank-2 representation.

    The extension class is chosen with a unit component in every nonzero
    cyclic factor of the extension group (deterministically, from the
    Smith transform of the Hom condition, see ``_extension_classes``); when
    the group vanishes this is the direct sum.  The middle is written on
    bottom + top at every vertex (see ``_pushout``).
    """
    if (top.n, top.k) != (bottom.n, bottom.k):
        raise ValueError("rims disagree on (k, n)")
    N = default_truncation(top.n, trunc)
    top_rep, bot_rep = build_rank1(top, N), build_rank1(bottom, N)
    return _extension_middle(top_rep, bot_rep, _extension_classes(top_rep, bot_rep),
                             weights or (1,))


def _extension_classes(top_rep: CMModuleRep, bot_rep: CMModuleRep
                       ) -> Optional[tuple[SyzygyData, list[dict[int, DVRMatrix]], int,
                                           dict[int, tuple[DVRMatrix, DVRMatrix]]]]:
    """The top's syzygy data, one map Omega -> bottom per nonzero cyclic
    factor of Ext^1, their floor, and the splitting of the top's cover map
    at each vertex (see ``_pushout``); None when every extension splits.

    Ext^1 is the torsion of the cokernel of the Hom condition R, which maps
    into F = Hom(P1, N) (see ``_ext1_once``), so its factors are the
    positive exponents e_i of the certified Smith form U R V = S.  Factor i
    is generated by U^-1 e_i, which lies in Hom(Omega, N): t^e_i U^-1 e_i =
    R V e_i lies in the image of R, and Hom(Omega, N) is saturated in F.
    Its entries are the images of Omega's top generators, written out by
    ``_vertex_maps`` over Omega's cover (Omega is not resolved); every lift
    is solved from one factorisation of the invertible U, losing nothing.
    """
    syz = syzygy_data(top_rep)
    if syz.omega is None:  # projective top
        return None
    sm, floor = _hom_condition(top_rep, bot_rep, need_u=True)
    targets = [i for i, e in enumerate(sm.exponents) if e > 0]
    if not targets:
        return None
    floor -= sm.loss
    eye = DVRMatrix.identity(sm.U.rows, top_rep.trunc)
    lifts = _smith(sm.U).solve(DVRMatrix.from_columns(
        [eye.column(i) for i in targets], eye.rows, eye.trunc), floor)
    if lifts is None:
        raise TruncationUnstable("could not lift the extension classes")
    maps = _vertex_maps(_root_cover(syz.omega), bot_rep, lifts, range(1, top_rep.n + 1), floor)
    # syzygy_data's factorisations again, now with U: the same V, so each
    # retraction is a left inverse of syz.embed
    return syz, maps, floor, {v: _smith(eps).splitting() for v, eps in syz.cover.eps.items()}


def _extension_middle(top_rep: CMModuleRep, bot_rep: CMModuleRep, classes,
                      weights: tuple[int, ...]) -> CMModuleRep:
    """Pushout along the sum of the ``_extension_classes`` maps, the p-th
    weighted by weights[p % len(weights)]; the direct sum when there are none."""
    if classes is None:
        return direct_sum(top_rep, bot_rep)
    syz, maps, floor, splits = classes
    N = top_rep.trunc
    scalars = [ValPoly.monomial(weights[p % len(weights)], 0, N) for p in range(len(maps))]
    f = {v: sum((g[v].scale(c) for g, c in zip(maps, scalars)),
                DVRMatrix.zeros(bot_rep.s, syz.omega.s, N))
         for v in range(1, top_rep.n + 1)}
    return _pushout(top_rep, bot_rep, syz, f, floor, splits)


def _pushout(top_rep: CMModuleRep, bot_rep: CMModuleRep, syz: SyzygyData,
             f: dict[int, DVRMatrix], floor: int,
             splits: dict[int, tuple[DVRMatrix, DVRMatrix]]) -> CMModuleRep:
    """The middle E of the extension of top by bottom with class f: Omega ->
    bottom, on the basis of bottom, then top, correct modulo t^floor.

    E is the pushout (bottom + P0) / {(f w, -w)} of the top's cover P0.  At
    vertex v, the section sigma_v and retraction rho_v of the cover map
    eps_v (``splits[v]``) split P0 as Omega + top, and (b, p) -> (b + f_v
    rho_v p, eps_v p) identifies E_v with bottom_v + top_v.  A cover map A
    (``_cover_edge_scalars``) from v to u becomes [[bottom's map, f_u rho_u
    A sigma_v], [0, top's map]], since eps_u A sigma_v is top's.  The cover
    map has unit pivots, so nothing is lost.
    """
    n, N, s = top_rep.n, top_rep.trunc, top_rep.s

    def structure_map(edge: int, src: int, dst: int, forward: bool,
                      bot_map: DVRMatrix, top_map: DVRMatrix) -> DVRMatrix:
        scalars = _cover_edge_scalars(top_rep, syz.cover, edge, forward)
        moved = DVRMatrix([[a * e for e in row] for a, row in zip(scalars, splits[src][0].data)],
                          N, cols=s)
        return DVRMatrix.block(bot_map, f[dst] @ (splits[dst][1] @ moved), top_map)

    x_new, y_new = {}, {}
    for v in range(1, n + 1):
        w = (v - 2) % n + 1
        x_new[v] = structure_map(v, w, v, True, bot_rep.x[v], top_rep.x[v])
        y_new[v] = structure_map(v, v, w, False, bot_rep.y[v], top_rep.y[v])
    return CMModuleRep(n, top_rep.k, s + bot_rep.s, x_new, y_new, N, floor)


# deterministic ladder of extension-class weightings; geometric sequences with
# distinct ratios cannot all land in a fixed finite union of proper subspaces
WEIGHT_LADDER: tuple[tuple[int, ...], ...] = (
    (1, 2, 4, 8, 16, 32),
    (1, 3, 9, 27, 81, 243),
    (1, 1, 1, 1, 1, 1),
    (1, -1, 1, -1, 1, -1),
    (1, 5, 25, 125, 625, 3125),
    (2, 1, 1, 1, 1, 1),
)


def decomposition_rank2(m: CMModuleRep) -> Optional[tuple[Rim, Rim]]:
    """Split a rank-2 representation into two rank-1 summands, if possible.

    Any decomposition must be a pair of rank-1 modules whose multiplicity
    vectors add to that of m, so the finitely many candidate pairs are
    compared by explicit isomorphism.  Every candidate has m's a-vector
    by construction and is filtered to m's top, so only the Hom test runs.
    """
    if m.s != 2:
        raise ValueError("decomposition test is for rank-2 modules")
    tops = top_multiset(m)
    for u, v in two_layer_splits(rep_a_vector(m).entries, m.k, m.n):
        if u > v:
            continue  # unordered pairs: the least rim goes to the first layer
        expected_top: dict[int, int] = {}
        for p in list(peaks(u)) + list(peaks(v)):
            expected_top[p] = expected_top.get(p, 0) + 1
        if expected_top != tops:
            continue
        cand = direct_sum(build_rank1(u, m.trunc), build_rank1(v, m.trunc))
        if _isomorphic_given_a_vectors(m, cand):
            return (u, v)
    return None


class Walk(tuple):
    """A ladder walk's module and its rigid-indecomposable verdict, as a pair."""

    def rotate(self, j: int) -> "Walk":
        return Walk((self[0].rotate(j), self[1]))


def _ladder_walk(p: Profile, N: int) -> Walk:
    """Walk the weight ladder once for the two-layer profile top|bottom.

    The module is the first extension middle that is rigid and
    indecomposable (the unique such module when one exists), and
    otherwise the first middle, which is the generic extension.
    """
    # resolved and their classes lifted once, for every weight of the ladder
    top_rep, bot_rep = (build_rank1(r, N) for r in p.layers)
    classes = _extension_classes(top_rep, bot_rep)
    first: Optional[CMModuleRep] = None
    for weights in WEIGHT_LADDER:
        m = _extension_middle(top_rep, bot_rep, classes, weights)
        if is_rigid(m) and decomposition_rank2(m) is None:
            return Walk((m, True))
        if first is None:
            first = m
    return Walk((first, False))


# a lambda, so that a replaced _ladder_walk is reached
_rank2_walk = per_rotation_class(lambda p, N: _ladder_walk(p, N))


def rank2_extension(top: Rim, bottom: Rim, trunc: Optional[int] = None) -> CMModuleRep:
    """The canonical rank-2 module with the given ordered profile.

    This is the rigid indecomposable module when one exists, and otherwise
    the generic extension (see ``_ladder_walk``).
    """
    return _rank2_walk(Profile((top, bottom)), default_truncation(top.n, trunc))[0]


def rigid_indecomposable_rank2(top: Rim, bottom: Rim,
                               trunc: Optional[int] = None) -> Optional[CMModuleRep]:
    """The rigid indecomposable module with profile top|bottom, or None."""
    module, verdict = _rank2_walk(Profile((top, bottom)), default_truncation(top.n, trunc))
    return module if verdict else None


def canonical_module(p: Profile, trunc: Optional[int] = None) -> CMModuleRep:
    """The shared module a profile names: ``build_rank1`` of a one-layer
    profile, ``rank2_extension`` of a two-layer one."""
    if len(p.layers) == 1:
        return build_rank1(p.layers[0], trunc)
    if len(p.layers) == 2:
        return rank2_extension(*p.layers, trunc)
    raise ValueError(f"{p} has {len(p.layers)} layers; only 1 or 2 name a module")

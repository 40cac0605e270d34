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
P1 -> P0 is the cover of the syzygy followed by its embedding.  A
module's top, cover and syzygy are each computed once and cached on it by
the one accessor ``modules.on_root``, which gives a rotated view its
root's, relabelled once: Hom, Ext, extension middles and orbit steps all
read those caches.
Hom(M, N) is the kernel of the map Hom(P0, N) -> Hom(P1, N): the Hom
condition, imposed only at the syzygy's top generators, which generate
it.  Ext^1(M, N) is the torsion of its cokernel, read off the one
certified Smith form that ``hom_space`` and ``is_isomorphic`` factor too;
an extension's classes are lifted off it and the condition itself, with no
second step and no row transform.  Each cover map is a surjection with a
unit pivot in every row, split once (``dvr._split``, no Smith form) when
the module is covered: the syzygy, the vertex matrices of a Hom basis and
an extension middle read its kernel, coordinates, section and retraction
from that one split, and no linear system is solved.  The syzygy and a
middle are one pass over the cover's arrows (``_cover_arrows``): an arrow
applied to the kernel and read back by ``coordinates`` is the syzygy's;
applied to the section and read back by the retraction, it is the
middle's off-diagonal block.

Every computed module and Hom basis carries a precision floor (see
``dvr``), and every rank that theory fixes is checked with
``Smith.certify``: a step short of precision raises TruncationUnstable.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import permutations
from typing import Optional, Sequence

from .dvr import Coeff, DVRMatrix, Smith, Split, ValPoly, _reciprocal, _smith, _split
from .errors import ProjectiveInput, TruncationUnstable
from .modules import (CMModuleRep, Profile, build_rank1, default_truncation,
                      direct_sum, identify_rank1, on_root, per_rotation_class,
                      rep_a_vector)
from .rims import Rim, interlacing_degree, peaks, two_layer_splits

def top_generators(m: CMModuleRep) -> tuple[tuple[int, int], ...]:
    """The standard basis vectors spanning the top, as (vertex, index) pairs.

    At vertex v the top is the cokernel of [x_v | y_{v+1}] taken modulo t
    (see ``_top_generators``).  The list is cached (``on_root``), by
    vertex; a view relabels its root's and keeps its order, which is the
    order of the cover it relabels (``Cover.rotate``).
    """
    n = m.n
    return on_root(m, "_top",
                   lambda root: tuple((v, idx) for v in range(1, n + 1)
                                      for idx in _top_generators(root, v)),
                   lambda top, j: tuple(((v + j - 1) % n + 1, idx) for v, idx in top))


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
    """Minimal projective cover data: one summand per top generator, and the
    one ``Split`` of the cover map at each vertex."""

    __slots__ = ("vertices", "split")

    def __init__(self, vertices: tuple[int, ...], split: dict[int, Split]) -> None:
        self.vertices = vertices  # cover vertex of each summand
        self.split = split        # vertex w -> split of the map at w

    @property
    def size(self) -> int:
        return len(self.vertices)

    def rotate(self, j: int) -> "Cover":
        """The cover of the module rotated by j: the same summands, relabelled."""
        n = len(self.split)
        turn = {v: (v + j - 1) % n + 1 for v in range(1, n + 1)}
        return Cover(tuple(turn[v] for v in self.vertices),
                     {turn[w]: sp for w, sp in self.split.items()})


def projective_cover(m: CMModuleRep) -> Cover:
    """Minimal cover: projectives at the top vertices, in ``top_generators``
    order, mapped by evaluation, each vertex's map split once (``_split``).

    The top spans every M_w modulo the arrows and t, so the cover map is
    surjective with a unit pivot in every row, and its splits lose no
    precision: the syzygy, the Hom maps and the pushout read their kernels,
    coordinates, sections and retractions at the module's floor.
    """
    gens = top_generators(m)
    split = {}
    for w in range(1, m.n + 1):
        eps = DVRMatrix.from_columns([m.path_matrix(v, w).column(idx) for v, idx in gens],
                                     m.s, m.trunc)
        try:
            split[w] = _split(eps)
        except ValueError:
            raise AssertionError(f"cover map not surjective at vertex {w}") from None
    return Cover(tuple(v for v, _ in gens), split)


def _cover_of(m: CMModuleRep) -> Cover:
    """m's ``projective_cover``, cached (``on_root``)."""
    return on_root(m, "_cover", projective_cover, Cover.rotate)


def _omega(m: CMModuleRep) -> Optional[CMModuleRep]:
    """The syzygy of m, cached (``on_root``), or None when m is projective:
    its cover map is then an isomorphism."""
    if _cover_of(m).size == m.s:
        return None
    return on_root(m, "_syzygy", _kernel_module, CMModuleRep.rotate)


def _cover_arrows(m: CMModuleRep, cover: Cover, pieces: dict[int, DVRMatrix]):
    """Each arrow of m's cover P0 applied to the piece of P0 at its source:
    yields ("x" or "y", edge, target vertex, image).  On the summand at
    cover vertex u an arrow of edge i acts by 1 or t: x by 1 when i lies in
    the cyclic interval [u+1, u+k], y by 1 when it does not.  A row acted
    on by 1 is the piece's own row (entries are immutable and shared)."""
    n, t = m.n, ValPoly.t(m.trunc)
    for v in range(1, n + 1):
        w = (v - 2) % n + 1
        inside = [(v - u - 1) % n < m.k for u in cover.vertices]
        for arrow, src, dst in (("x", w, v), ("y", v, w)):
            yield arrow, v, dst, pieces[src].scale_rows(t, [i != (arrow == "x") for i in inside])


def _kernel_module(m: CMModuleRep) -> CMModuleRep:
    """The kernel of m's cover map, in the basis ``kernel`` of the cover's
    splits, which lose no precision: it keeps m's floor."""
    cover = _cover_of(m)
    maps: dict[str, dict[int, DVRMatrix]] = {"x": {}, "y": {}}
    for arrow, v, dst, image in _cover_arrows(
            m, cover, {w: sp.kernel for w, sp in cover.split.items()}):
        maps[arrow][v] = cover.split[dst].coordinates(image, m.floor)
    return CMModuleRep(m.n, m.k, cover.size - m.s, maps["x"], maps["y"], m.trunc, m.floor)


def syzygy(m: CMModuleRep) -> CMModuleRep:
    """Kernel of the minimal projective cover, with its induced action,
    cached on the module."""
    omega = _omega(m)
    if omega is None:
        raise ProjectiveInput("projective module has vanishing stable syzygy")
    return omega


class ExtDecomp:
    """Cyclic decomposition of an extension group over the centre; equal on
    its exponents."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: tuple[int, ...]) -> None:
        self.exponents = exponents

    def __eq__(self, other):
        if other.__class__ is not ExtDecomp:
            return NotImplemented
        return self.exponents == other.exponents

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
    cover, omega, sN = _cover_of(m), _omega(m), n_rep.s
    rows: list[list[ValPoly]] = []
    for w, idx in () if omega is None else top_generators(omega):
        g = cover.split[w].kernel.column(idx)
        paths = [n_rep.path_matrix(v, w) for v in cover.vertices]
        rows += [[g[i] * paths[i].data[a][b] for i in range(len(g)) for b in range(sN)]
                 for a in range(sN)]
    return DVRMatrix(rows, m.trunc, cols=cover.size * sN)


def _hom_condition(m: CMModuleRep, n_rep: CMModuleRep) -> tuple[Smith, int, DVRMatrix]:
    """Factorisation of the condition for cover-generator images
    to define a map m -> n, the floor of its kernel and the condition
    itself, from which ``_extension_classes`` lifts.

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
    against the condition's floor, the lower of m's and n's: rows short of
    that rank raise TruncationUnstable.  The kernel, read off V, is
    ``Smith.loss`` less precise, and that is the floor returned.  The
    cokernel's torsion is Ext^1(m, n) (see ``ext1``).
    """
    rows = _relation_rows(m, n_rep)
    floor = min(m.floor, n_rep.floor)
    sm = _smith(rows)
    sm.certify(floor, rows.cols - m.s * n_rep.s, f"Hom condition of ranks {m.s}, {n_rep.s}")
    return sm, floor - sm.loss, rows


def _vertex_maps(cover: Cover, n_rep: CMModuleRep, images: DVRMatrix,
                 vertices: Sequence[int], floor: int) -> list[dict[int, DVRMatrix]]:
    """Vertex matrices, at each of ``vertices``, of the maps whose
    cover-generator images are the columns of ``images``, generator i's
    image in rows i*sN .. (i+1)*sN - 1, all correct modulo t^floor.

    At each vertex w a map f satisfies f eps_w = G_w, whose column i is
    paths[i] @ xi_i, so f = G_w sigma_w for the section sigma_w of the
    cover's split: a product, for every map at once.  Images that define
    no map are caught where G_w does not vanish on the kernel of eps_w
    modulo t^floor.  The cover map has unit pivots (see
    ``projective_cover``), so this loses nothing.
    """
    c, sN, trunc = cover.size, n_rep.s, n_rep.trunc
    ngen = images.cols
    maps: list[dict[int, DVRMatrix]] = [{} for _ in range(ngen)]
    xi = [DVRMatrix(images.data[i * sN:(i + 1) * sN], trunc, cols=ngen) for i in range(c)]
    for w in vertices:
        sp = cover.split[w]
        paths = [n_rep.path_matrix(v, w) for v in cover.vertices]
        moved = [paths[i] @ xi[i] for i in range(c)]
        # G_w of every map, stacked: one row per (map j, row a of f)
        g = DVRMatrix([[moved[i].data[a][j] for i in range(c)]
                       for j in range(ngen) for a in range(sN)], trunc, cols=c)
        if any(e.coeffs and min(e.coeffs) < floor for row in (g @ sp.kernel).data
               for e in row):
            raise TruncationUnstable(f"hom evaluation not solvable at vertex {w}")
        f = g @ sp.section
        for j, fmap in enumerate(maps):
            fmap[w] = DVRMatrix(f.data[j * sN:(j + 1) * sN], trunc, cols=f.cols)
    return maps


def hom_space(m: CMModuleRep, n_rep: CMModuleRep) -> HomBasis:
    """Module maps m -> n as a free module over the centre, of certified rank
    rank(m) * rank(n).

    The kernel of the Hom condition (``_hom_condition``) gives the images of
    the cover generators under each basis map, and ``_vertex_maps`` writes
    the maps out vertexwise.  The cover and the syzygy are m's cached ones.
    """
    sm, floor, _ = _hom_condition(m, n_rep)
    return HomBasis(_vertex_maps(_cover_of(m), n_rep, sm.kernel(),
                                 range(1, m.n + 1), floor), floor)


def ext1(m: CMModuleRep, n_rep: CMModuleRep) -> ExtDecomp:
    """Ext^1(m, n) as a product of cyclic modules over the centre: the
    positive exponents of the Hom condition's Smith form, read once at the
    working truncation and certified exact there, or TruncationUnstable.

    The condition maps Hom(P0, N) into F = Hom(P1, N), P1 the cover of
    Omega.  Hom(Omega, N) is the kernel of a map of free modules, so it is
    saturated in F.  It holds the image L, whose certified rank
    (c - rank m) * rank N is its own, so it is L's saturation and
    tors(F / L) = Hom(Omega, N) / L = Ext^1(m, n).  ``_hom_condition``
    certifies every exponent below the condition's own floor.
    Only m's first syzygy is needed; it and n's path matrices are cached,
    and shared by every rotation of a ``build_rank1`` module.
    """
    sm, _, _ = _hom_condition(m, n_rep)
    return ExtDecomp(tuple(e for e in sm.exponents if e > 0))


def ext1_rims(a: Rim, b: Rim, trunc: Optional[int] = None) -> ExtDecomp:
    """Ext^1 between two rank-1 modules given by rims."""
    return ext1(build_rank1(a, trunc), build_rank1(b, trunc))


def is_rigid(m: CMModuleRep) -> bool:
    """True when the module has no self-extensions."""
    return ext1(m, m).is_zero()


def _det_poly_mod_t(blocks: list[list[list[Fraction]]], s: int) -> dict[tuple[int, ...], Fraction]:
    """det(sum_g lambda_g * blocks[g]) mod t, as a polynomial in lambda."""
    total: dict[tuple[int, ...], Fraction] = {}
    for perm in permutations(range(s)):
        inversions = sum(perm[i] > perm[j] for i in range(s) for j in range(i + 1, s))
        prod: dict[tuple[int, ...], Fraction] = {(): Fraction((-1) ** inversions)}
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
    sm, floor, _ = _hom_condition(m, n_rep)
    basis = _vertex_maps(_cover_of(m), n_rep, sm.kernel(), (1,), floor)
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
                       ) -> Optional[tuple[CMModuleRep, list[dict[int, DVRMatrix]], int]]:
    """The top's syzygy Omega, one map Omega -> bottom per nonzero cyclic
    factor of Ext^1, and their floor; None when every extension splits.

    Ext^1 is the torsion of the cokernel of the Hom condition R, which maps
    into F = Hom(P1, N) (see ``ext1``), so its factors are the
    positive exponents e_i of the certified Smith form U R V = S.  Factor i
    is generated by U^-1 e_i = R V e_i / t^e_i, which lies in Hom(Omega, N):
    t^e_i times it lies in the image of R, and Hom(Omega, N) is saturated
    in F.  So each class is R V e_i divided exactly by t^e_i, known modulo
    t^(floor - e_i) for the condition's floor, so at least to the kernel
    floor that ``_hom_condition`` returns, and U is never formed.  Its entries are the images of
    Omega's top generators, written out by ``_vertex_maps`` over Omega's
    cover (Omega is not resolved).
    """
    omega = _omega(top_rep)
    if omega is None:  # projective top
        return None
    sm, floor, rows = _hom_condition(top_rep, bot_rep)
    targets = [(i, e) for i, e in enumerate(sm.exponents) if e > 0]
    if not targets:
        return None
    N = top_rep.trunc
    images = rows @ DVRMatrix.from_columns([sm.V.column(i) for i, _ in targets], sm.cols, N)
    pivots = [ValPoly.monomial(1, e, N) for _, e in targets]
    lifts = DVRMatrix([[x.exact_div(p) for x, p in zip(row, pivots)] for row in images.data],
                      N, cols=len(targets))
    maps = _vertex_maps(_cover_of(omega), bot_rep, lifts, range(1, top_rep.n + 1), floor)
    return omega, maps, floor


def _extension_middle(top_rep: CMModuleRep, bot_rep: CMModuleRep, classes,
                      weights: tuple[int, ...]) -> CMModuleRep:
    """Pushout along the sum of the ``_extension_classes`` maps, the p-th
    weighted by weights[p % len(weights)]; the direct sum when there are none."""
    if classes is None:
        return direct_sum(top_rep, bot_rep)
    omega, maps, floor = classes
    N = top_rep.trunc
    scalars = [ValPoly.monomial(weights[p % len(weights)], 0, N) for p in range(len(maps))]
    f = {v: sum((g[v].scale(c) for g, c in zip(maps, scalars)),
                DVRMatrix.zeros(bot_rep.s, omega.s, N))
         for v in range(1, top_rep.n + 1)}
    return _pushout(top_rep, bot_rep, f, floor)


def _pushout(top_rep: CMModuleRep, bot_rep: CMModuleRep, f: dict[int, DVRMatrix],
             floor: int) -> CMModuleRep:
    """The middle E of the extension of top by bottom with class f: Omega ->
    bottom, on the basis of bottom, then top, correct modulo t^floor.

    E is the pushout (bottom + P0) / {(f w, -w)} of the top's cover P0.  At
    vertex v, the section sigma_v and retraction rho_v of the cover map
    eps_v (the cover's ``Split``, whose ``kernel`` is Omega's basis too)
    split P0 as Omega + top, and (b, p) -> (b + f_v rho_v p, eps_v p)
    identifies E_v with bottom_v + top_v.  An arrow A of P0 from v to u
    (``_cover_arrows``, applied to sigma_v) becomes [[bottom's arrow,
    f_u rho_u A sigma_v], [0, top's arrow]], since eps_u A sigma_v is top's.
    The cover map has unit pivots, so nothing is lost.
    """
    cover = _cover_of(top_rep)
    maps: dict[str, dict[int, DVRMatrix]] = {"x": {}, "y": {}}
    for arrow, v, dst, image in _cover_arrows(
            top_rep, cover, {w: sp.section for w, sp in cover.split.items()}):
        maps[arrow][v] = DVRMatrix.block(getattr(bot_rep, arrow)[v],
                                         f[dst] @ (cover.split[dst].retraction @ image),
                                         getattr(top_rep, arrow)[v])
    return CMModuleRep(top_rep.n, top_rep.k, top_rep.s + bot_rep.s, maps["x"], maps["y"],
                       top_rep.trunc, floor)


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


class OrbitMember:
    """One module named by its profiles as far as its rank allows: a rank-1
    module by the one-layer profile of its rim, a rank-2 module by every
    two-layer profile it has (sorted by label), and a module that is not
    identified by none.  A member is its own key: identified members are
    equal exactly when their modules are isomorphic, the others when their
    ranks and a-vectors agree."""

    __slots__ = ("rank", "a_vec", "profiles")

    def __init__(self, rank: int, a_vec: tuple[int, ...],
                 profiles: tuple[Profile, ...] = ()) -> None:
        self.rank, self.a_vec, self.profiles = rank, a_vec, profiles

    def __eq__(self, other):
        if other.__class__ is not OrbitMember:
            return NotImplemented
        return (self.rank, self.a_vec, self.profiles) == (other.rank, other.a_vec,
                                                          other.profiles)

    def __hash__(self) -> int:
        return hash((self.rank, self.a_vec, self.profiles))

    def label(self) -> str:
        if self.profiles:
            return self.profiles[0].label()
        return f"rk{self.rank}[" + ",".join(str(c) for c in self.a_vec) + "]"

    def rotate(self, m: int, n: int) -> "OrbitMember":
        avec = tuple(self.a_vec[(i - m) % n] for i in range(n))
        return OrbitMember(self.rank, avec,
                           tuple(sorted((p.shift(m) for p in self.profiles), key=Profile.label)))


def _identify(rep: CMModuleRep) -> OrbitMember:
    """The profiles whose ``canonical_module`` is isomorphic to rep, as far
    as its rank allows, found once per root module: the answer is cached
    (``on_root``), and a rotated view gets its root's member rotated, since
    rotation is an automorphism that carries a-vectors, valuations,
    canonical modules and isomorphisms along.

    A root of rank 1 is named by ``identify_rank1``.  A root of rank 2 is
    compared with the canonical module of every split of its a-vector of
    interlacing degree at least 3.
    """
    def name(root: CMModuleRep) -> OrbitMember:
        avec = rep_a_vector(root).entries
        if root.s == 1:
            return OrbitMember(1, avec, (Profile((identify_rank1(root),)),))
        if root.s == 2:
            splits = map(Profile, two_layer_splits(avec, root.k, root.n))
            matches = sorted((p for p in splits if interlacing_degree(*p.layers) >= 3
                              and is_isomorphic(root, canonical_module(p, root.trunc))),
                             key=Profile.label)
            if matches:
                return OrbitMember(2, avec, tuple(matches))
        return OrbitMember(root.s, avec)
    return on_root(rep, "_member", name, lambda member, j: member.rotate(j, rep.n))

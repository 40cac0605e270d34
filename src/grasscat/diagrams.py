"""SVG, TikZ and DOT emitters for lattice diagrams and tube fragments."""

from __future__ import annotations

from .modules import Profile, lattice_diagram_data

CELL = 40          # svg pixels per lattice unit
MARGIN = 30


def _svg_point(col: int, height: float, max_h: int) -> tuple[float, float]:
    return (MARGIN + col * CELL, MARGIN + (max_h - height) * CELL * 0.5)


def lattice_svg(p: Profile) -> str:
    data = lattice_diagram_data(p)
    n = data["n"]
    max_h = max(max(h) for h in data["polylines"])
    min_dot = min(min(c["dots"]) for c in data["columns"])
    height = MARGIN * 2 + (max_h - min_dot) * CELL * 0.5
    width = MARGIN * 2 + n * CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        '<g fill="black" stroke="black">',
    ]
    # lattice dots and diagonal arrows between adjacent columns
    for col in data["columns"]:
        for d in col["dots"]:
            x, y = _svg_point(col["column"], d, max_h)
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.5"/>')
    for i in range(1, n + 1):
        left = data["columns"][i - 1]
        right = data["columns"][i]
        for d in left["dots"]:
            if d - 1 in right["dots"]:
                x1, y1 = _svg_point(i - 1, d, max_h)
                x2, y2 = _svg_point(i, d - 1, max_h)
                parts.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" '
                             f'x2="{x2:.1f}" y2="{y2:.1f}" stroke-width="0.7"/>')
        for d in right["dots"]:
            if d - 1 in left["dots"]:
                x1, y1 = _svg_point(i, d, max_h)
                x2, y2 = _svg_point(i - 1, d - 1, max_h)
                parts.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" '
                             f'x2="{x2:.1f}" y2="{y2:.1f}" stroke-width="0.7"/>')
    # rims as thick polylines, one per layer
    for h in data["polylines"]:
        pts = " ".join("{:.1f},{:.1f}".format(*_svg_point(i, h[i], max_h))
                       for i in range(n + 1))
        parts.append(f'<polyline points="{pts}" fill="none" stroke-width="3"/>')
    for col in data["columns"]:
        x, _ = _svg_point(col["column"], 0, max_h)
        parts.append(f'<text x="{x:.1f}" y="{height - 8:.1f}" font-size="12" '
                     f'text-anchor="middle" stroke="none">{col["label"]}</text>')
    parts.append("</g></svg>")
    return "\n".join(parts) + "\n"


def lattice_tikz(p: Profile) -> str:
    data = lattice_diagram_data(p)
    n = data["n"]
    lines = [
        "\\begin{tikzpicture}[scale=0.8]",
        "% lattice dots",
    ]
    for col in data["columns"]:
        for d in col["dots"]:
            lines.append(
                f"\\draw ({col['column']},{d / 2:.1f}) circle (0.06) [fill=black];")
    lines.append("% structure arrows")
    for i in range(1, n + 1):
        left = data["columns"][i - 1]
        right = data["columns"][i]
        for d in left["dots"]:
            if d - 1 in right["dots"]:
                lines.append(f"\\draw[-latex, shorten <=2pt, shorten >=2pt] "
                             f"({i - 1},{d / 2:.1f}) -- ({i},{(d - 1) / 2:.1f});")
        for d in right["dots"]:
            if d - 1 in left["dots"]:
                lines.append(f"\\draw[-latex, shorten <=2pt, shorten >=2pt] "
                             f"({i},{d / 2:.1f}) -- ({i - 1},{(d - 1) / 2:.1f});")
    lines.append("% rims")
    for h in data["polylines"]:
        path = " -- ".join(f"({i},{h[i] / 2:.1f})" for i in range(n + 1))
        lines.append(f"\\draw[ultra thick] {path};")
    for col in data["columns"]:
        lines.append(f"\\node at ({col['column']},"
                     f"{min(col['dots']) / 2 - 0.6:.1f}) {{{col['label']}}};")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def orbit_dot(orbit) -> str:
    """Tube fragment as a DOT digraph: translation steps around the mouth."""
    lines = ["digraph tube {", "  rankdir=LR;"]
    p = orbit.period
    for i, m in enumerate(orbit.members):
        lines.append(f'  m{i} [label="{m.label()}" shape=box];')
    for i in range(p):
        lines.append(f"  m{i} -> m{(i + 1) % p} [label=\"syzygy\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def orbit_tikz(orbit) -> str:
    """Tube fragment in the style of the printed figures."""
    lines = ["\\begin{tikzpicture}[every node/.style={font=\\small}]"]
    p = orbit.period
    for i, m in enumerate(orbit.members):
        label = m.label().replace("|", "\\mid ")
        lines.append(f"\\node (m{i}) at ({2 * i},0) {{${label}$}};")
    for i in range(p - 1):
        lines.append(f"\\draw[dotted,->] (m{i}) -- (m{i + 1});")
    if p > 1:
        lines.append(f"\\draw[dotted,->] (m{p - 1}) to[bend left=20] (m0);")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"

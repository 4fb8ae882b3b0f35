"""Self-contained HTML performance report (``repro report --html``).

Renders one :class:`~repro.obs.artifact.RunArtifact` into a single HTML
file with zero external assets (inline CSS + SVG), so the page survives
being archived as a CI build artifact or mailed around.

Sections: run header, headline report table, top-down cycle-attribution
tree (nested horizontal bars), what-if estimates, critical-path summary,
PE-utilization timeline (SVG area chart), the span waterfall, and — for
schema-v3 artifacts — the wall-clock latency percentiles and profile
(top functions + flamegraph).
"""

from __future__ import annotations

import html as _html
from pathlib import Path

from repro.obs.artifact import RunArtifact

_CSS = """
body { font: 14px/1.45 -apple-system, 'Segoe UI', sans-serif;
       margin: 2em auto; max-width: 60em; color: #1a1a2e; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em;
     border-bottom: 1px solid #ddd; padding-bottom: .2em; }
table { border-collapse: collapse; }
td, th { padding: .15em .8em .15em 0; text-align: left; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.bar { height: 1.15em; background: #4c72b0; display: inline-block;
       vertical-align: middle; border-radius: 2px; }
.bar.l1 { background: #55a868; } .bar.l2 { background: #c44e52; }
.tree .row { white-space: nowrap; font-variant-numeric: tabular-nums; }
.tree .name { display: inline-block; width: 16em; }
.tree .pct { display: inline-block; width: 4.5em; text-align: right;
             padding-right: .6em; color: #555; }
.muted { color: #777; } code { background: #f4f4f6; padding: 0 .25em; }
svg { background: #fafafc; border: 1px solid #e5e5ea; }
"""

_BAR_CLASS = {0: "", 1: "l1", 2: "l2"}


def _esc(text) -> str:
    return _html.escape(str(text))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return f"{value:,}" if isinstance(value, int) else str(value)


def _tree_rows(node: dict, denom: int, depth: int = 0) -> list[str]:
    pct = 100.0 * node["cycles"] / (denom or 1)
    bar = max(1, round(pct * 3))
    rows = [
        f'<div class="row" style="padding-left:{depth * 1.4}em">'
        f'<span class="name">{_esc(node["name"])}</span>'
        f'<span class="pct">{pct:.1f}%</span>'
        f'<span class="bar {_BAR_CLASS.get(depth, "l2")}" '
        f'style="width:{bar}px"></span> '
        f'<span class="muted">{node["cycles"]:,}</span></div>'
    ]
    for child in node.get("children", []):
        rows.extend(_tree_rows(child, denom, depth + 1))
    return rows


def _svg_area(values: list[float], width: int = 640, height: int = 120,
              y_max: float = 1.0) -> str:
    """Filled area chart of a 0..y_max series (utilization timeline)."""
    if not values:
        return '<p class="muted">(no data)</p>'
    n = len(values)
    step = width / max(n, 1)
    points = [f"0,{height}"]
    for i, v in enumerate(values):
        y = height - (min(v, y_max) / y_max) * (height - 4)
        points.append(f"{(i + 0.5) * step:.1f},{y:.1f}")
    points.append(f"{width},{height}")
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<polygon points="{" ".join(points)}" fill="#4c72b0" '
        f'fill-opacity="0.55" stroke="#4c72b0"/></svg>'
    )


def render_html_report(artifact: RunArtifact) -> str:
    """Render one artifact to HTML."""
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>repro report: {_esc(artifact.matrix)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_esc(artifact.matrix)} <span class='muted'>"
        f"[{_esc(artifact.kind)}] n={artifact.n}</span></h1>",
        f"<p class='muted'>schema v{artifact.schema_version} &middot; "
        f"created {_esc(artifact.created_at)}</p>",
    ]

    # headline report table
    parts.append("<h2>Report</h2><table>")
    for key, value in sorted(artifact.report.items()):
        if isinstance(value, (int, float)):
            parts.append(f"<tr><td><code>{_esc(key)}</code></td>"
                         f"<td class='num'>{_fmt(value)}</td></tr>")
    parts.append("</table>")

    att = artifact.attribution or {}
    cycles = att.get("cycles")
    if cycles:
        parts.append("<h2>Cycle attribution</h2><div class='tree'>")
        denom = cycles["total_cycles"] * cycles["n_pes"]
        parts.extend(_tree_rows(cycles["tree"], denom))
        parts.append("</div>")
        what_if = cycles.get("what_if", {})
        if what_if:
            parts.append("<h2>What-if estimates "
                         "<span class='muted'>(first-order)</span></h2>"
                         "<table>")
            actual = cycles["total_cycles"] or 1
            for name, est in sorted(what_if.items()):
                delta = 100.0 * (est - actual) / actual
                parts.append(
                    f"<tr><td><code>{_esc(name)}</code></td>"
                    f"<td class='num'>~{est:,}</td>"
                    f"<td class='num muted'>{delta:+.1f}%</td></tr>"
                )
            parts.append("</table>")

    cp = att.get("critical_path")
    if cp:
        parts.append("<h2>Critical path</h2>")
        pct = 100.0 * cp["cp_cycles"] / (cp["total_cycles"] or 1)
        parts.append(
            f"<p><b>{cp['cp_cycles']:,}</b> of {cp['total_cycles']:,} "
            f"cycles ({pct:.0f}%) on the longest dependence chain, "
            f"{cp['n_steps']} tasks.</p><table>"
        )
        parts.append("<tr><th>task type</th><th>cycles on path</th></tr>")
        for ttype, c in sorted(cp.get("by_task_type", {}).items(),
                               key=lambda kv: -kv[1]):
            parts.append(f"<tr><td><code>{_esc(ttype)}</code></td>"
                         f"<td class='num'>{c:,}</td></tr>")
        gaps = cp.get("gaps", {})
        for cause, c in sorted(gaps.items()):
            parts.append(f"<tr><td class='muted'>wait: {_esc(cause)}"
                         f"</td><td class='num'>{c:,}</td></tr>")
        parts.append("</table>")
        top = cp.get("top_supernodes", [])
        if top:
            parts.append("<p class='muted'>top supernodes on path: "
                         + ", ".join(f"S{t['sn']} ({t['cycles']:,})"
                                     for t in top) + "</p>")

    timeline = att.get("utilization_timeline")
    if timeline:
        parts.append("<h2>PE utilization over time</h2>")
        parts.append(_svg_area([float(v) for v in timeline]))

    if artifact.telemetry:
        tel = artifact.telemetry
        parts.append(
            "<h2>Runtime telemetry</h2>"
            f"<p>run <code>{_esc(tel.get('run_id', '?'))}</code> &middot; "
            f"dir <code>{_esc(tel.get('dir', ''))}</code></p>"
        )
        parts.append(_latency_table(tel.get("latency_ms", {})))

    if artifact.profile:
        from repro.obs.profile import ProfileResult, flamegraph_svg

        prof = ProfileResult.from_dict(artifact.profile)
        parts.append(
            f"<h2>Wall-clock profile <span class='muted'>({_esc(prof.mode)}"
            f", {prof.seconds:.2f}s, {prof.samples} samples)</span></h2>"
        )
        if prof.top:
            parts.append("<table><tr><th>cumtime</th><th>tottime</th>"
                         "<th>ncalls</th><th>function</th></tr>")
            for row in prof.top[:20]:
                parts.append(
                    f"<tr><td class='num'>{row['cumtime_s']:.3f}s</td>"
                    f"<td class='num'>{row['tottime_s']:.3f}s</td>"
                    f"<td class='num'>{row['ncalls']}</td>"
                    f"<td><code>{_esc(row['func'])}</code> "
                    f"<span class='muted'>{_esc(row['file'])}:"
                    f"{row['line']}</span></td></tr>"
                )
            parts.append("</table>")
        parts.append("<h2>Flamegraph <span class='muted'>(sampled, all "
                     "threads)</span></h2>")
        parts.append(flamegraph_svg(prof.folded))

    if artifact.spans:
        parts.append("<h2>Pipeline spans</h2><table>")
        total = max(s["duration_s"] for s in artifact.spans) or 1.0
        for s in sorted(artifact.spans, key=lambda d: d["start_s"]):
            bar = max(1, round(240 * s["duration_s"] / total))
            indent = 1.2 * s.get("depth", 0)
            parts.append(
                f"<tr><td style='padding-left:{indent}em'>"
                f"<code>{_esc(s['name'])}</code></td>"
                f"<td class='num'>{1e3 * s['duration_s']:.2f} ms</td>"
                f"<td><span class='bar' style='width:{bar}px'></span>"
                "</td></tr>"
            )
        parts.append("</table>")

    parts.append("</body></html>")
    return "\n".join(parts)


def write_html_report(artifact: RunArtifact, path: str | Path) -> None:
    Path(path).write_text(render_html_report(artifact))


def _latency_table(latency_ms: dict) -> str:
    if not latency_ms:
        return "<p class='muted'>(no phase latency samples)</p>"
    rows = ["<table><tr><th>phase</th><th>count</th><th>p50</th>"
            "<th>p95</th><th>p99</th><th>max</th></tr>"]
    for phase, st in sorted(latency_ms.items()):
        rows.append(
            f"<tr><td><code>{_esc(phase)}</code></td>"
            f"<td class='num'>{st['count']}</td>"
            f"<td class='num'>{st['p50_ms']:.3f} ms</td>"
            f"<td class='num'>{st['p95_ms']:.3f} ms</td>"
            f"<td class='num'>{st['p99_ms']:.3f} ms</td>"
            f"<td class='num'>{st['max_ms']:.3f} ms</td></tr>"
        )
    rows.append("</table>")
    return "".join(rows)

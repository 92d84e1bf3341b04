"""Self-contained HTML run report: inline SVG, zero external assets.

``repro-alloc report --html`` renders one HTML file aggregating the
windowed time series (stacked short/long allocation areas and a live-heap
area), the top drifting sites, the attribution top-10, the telemetry
summary, and the bench trajectory.  Everything is inline — styles in one
``<style>`` block, charts as inline SVG, no script, no fonts, no images,
no network references — so the file archives and diffs like any other
artifact.

Determinism is the contract: :func:`render_report` is a pure function of
its input documents plus the explicit ``generated_at`` string the caller
passes (the CLI stamps wall-clock time *outside* this module, which is in
the lint's deterministic scope).  Identical inputs render byte-identical
HTML: floats format through fixed-precision helpers, iteration orders are
sorted or taken from already-deterministic exports, and the palette is a
fixed constant.

The palette is the validated reference instance (two categorical slots,
blue/orange, both modes clearing the CVD and contrast gates), with text
in ink tokens — series color only ever paints marks.  Hover detail rides
native SVG ``<title>`` tooltips, the zero-asset interaction layer.
"""

from __future__ import annotations

from html import escape
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

if TYPE_CHECKING:
    from repro.bench.record import BenchSession

__all__ = ["render_report", "write_report"]

#: Validated categorical slots (light, dark) — blue then orange.
_SERIES = (("#2a78d6", "#3987e5"), ("#eb6834", "#d95926"))

_CSS = """\
:root { color-scheme: light; }
body {
  margin: 0; background: #f9f9f7; color: #0b0b0b;
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 960px; margin: 0 auto; padding: 24px 16px 48px; }
h1 { font-size: 20px; margin: 0 0 2px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
.sub { color: #52514e; margin: 0 0 16px; }
.muted { color: #898781; }
section.card {
  background: #fcfcfb; border: 1px solid rgba(11,11,11,0.10);
  border-radius: 8px; padding: 14px 16px; margin: 12px 0;
}
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile { min-width: 128px; }
.tile .label { color: #52514e; font-size: 12px; }
.tile .value { font-size: 22px; font-weight: 600; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th { text-align: right; color: #52514e; font-weight: 600;
     border-bottom: 1px solid #e1e0d9; padding: 4px 8px; }
td { text-align: right; padding: 4px 8px;
     font-variant-numeric: tabular-nums; }
th.site, td.site { text-align: left; font-family: ui-monospace, monospace;
                   font-size: 12px; }
tr:nth-child(even) td { background: rgba(11,11,11,0.02); }
.legend { display: flex; gap: 16px; font-size: 12px; color: #52514e;
          margin: 4px 0 8px; }
.key { display: inline-block; width: 10px; height: 10px;
       border-radius: 2px; margin-right: 5px; vertical-align: -1px; }
svg { display: block; }
svg text { fill: #898781; font: 11px system-ui, sans-serif; }
.grid { stroke: #e1e0d9; stroke-width: 1; }
.axis { stroke: #c3c2b7; stroke-width: 1; }
.s1 { color: #2a78d6; } .s2 { color: #eb6834; }
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) {
    color-scheme: dark;
  }
  :root:where(:not([data-theme="light"])) body {
    background: #0d0d0d; color: #ffffff;
  }
  :root:where(:not([data-theme="light"])) section.card {
    background: #1a1a19; border-color: rgba(255,255,255,0.10);
  }
  :root:where(:not([data-theme="light"])) .sub,
  :root:where(:not([data-theme="light"])) .tile .label,
  :root:where(:not([data-theme="light"])) th,
  :root:where(:not([data-theme="light"])) .legend { color: #c3c2b7; }
  :root:where(:not([data-theme="light"])) th { border-color: #2c2c2a; }
  :root:where(:not([data-theme="light"])) tr:nth-child(even) td {
    background: rgba(255,255,255,0.03);
  }
  :root:where(:not([data-theme="light"])) .grid { stroke: #2c2c2a; }
  :root:where(:not([data-theme="light"])) .axis { stroke: #383835; }
  :root:where(:not([data-theme="light"])) .s1 { color: #3987e5; }
  :root:where(:not([data-theme="light"])) .s2 { color: #d95926; }
}
"""


# ----------------------------------------------------------------------
# Deterministic formatting helpers
# ----------------------------------------------------------------------


def _fmt_int(value: int) -> str:
    return f"{value:,}"


def _fmt_compact(value: Union[int, float]) -> str:
    """1,284 / 12.9K / 4.2M — the stat-tile auto-compact form."""
    magnitude = abs(value)
    for limit, divisor, suffix in (
        (1e9, 1e9, "G"), (1e6, 1e6, "M"), (1e4, 1e3, "K")
    ):
        if magnitude >= limit:
            return f"{value / divisor:.1f}{suffix}"
    if isinstance(value, float) and value != int(value):
        return f"{value:.2f}"
    return f"{int(value):,}"


def _num(value: float) -> str:
    """An SVG coordinate with fixed precision (byte-stable)."""
    text = f"{value:.2f}"
    return text.rstrip("0").rstrip(".") if "." in text else text


def _nice_ceiling(value: float) -> float:
    """The smallest 1/2/5 x 10^k at or above ``value`` (1.0 floor)."""
    if value <= 1:
        return 1.0
    power = 1.0
    while power * 10 <= value:
        power *= 10
    for mult in (1, 2, 5, 10):
        if power * mult >= value:
            return power * mult
    return power * 10


def _chain_label(chain: Sequence[str], depth: int = 4) -> str:
    tail = list(chain)[-depth:]
    label = ">".join(tail)
    return ("…" + label) if len(chain) > depth else label


# ----------------------------------------------------------------------
# SVG components
# ----------------------------------------------------------------------

_W, _H, _PAD_L, _PAD_B, _PAD_T = 880, 180, 56, 18, 8
_SPARK_W, _SPARK_H = 120, 28


def _x(index: int, count: int) -> float:
    span = _W - _PAD_L - 8
    return _PAD_L + (index + 0.5) * span / max(count, 1)


def _y(value: float, ceiling: float) -> float:
    span = _H - _PAD_T - _PAD_B
    return _PAD_T + span * (1.0 - (value / ceiling if ceiling else 0.0))


def _grid_and_axis(ceiling: float, unit: str) -> List[str]:
    parts = []
    base_y = _num(_H - _PAD_B)
    for step in (0.5, 1.0):
        level = ceiling * step
        y = _num(_y(level, ceiling))
        parts.append(
            f'<line class="grid" x1="{_PAD_L}" y1="{y}"'
            f' x2="{_W - 8}" y2="{y}"/>'
        )
        parts.append(
            f'<text x="{_PAD_L - 6}" y="{y}" text-anchor="end"'
            f' dominant-baseline="middle">{_fmt_compact(level)}{unit}</text>'
        )
    parts.append(
        f'<line class="axis" x1="{_PAD_L}" y1="{base_y}"'
        f' x2="{_W - 8}" y2="{base_y}"/>'
    )
    return parts


def _area_path(values: Sequence[float], ceiling: float) -> str:
    """A closed area path from the baseline over per-window values."""
    count = len(values)
    base = _H - _PAD_B
    points = [
        f"{_num(_x(i, count))},{_num(_y(v, ceiling))}"
        for i, v in enumerate(values)
    ]
    first_x = _num(_x(0, count))
    last_x = _num(_x(count - 1, count))
    return (
        f"M{first_x},{_num(base)} L" + " L".join(points)
        + f" L{last_x},{_num(base)} Z"
    )


def _hover_columns(rows: List[Dict[str, Any]], titles: List[str]) -> str:
    """Full-height transparent hit rects, one per window, with tooltips."""
    count = len(rows)
    span = (_W - _PAD_L - 8) / max(count, 1)
    parts = []
    for i, title in enumerate(titles):
        x = _num(_PAD_L + i * span)
        parts.append(
            f'<rect x="{x}" y="{_PAD_T}" width="{_num(span)}"'
            f' height="{_H - _PAD_T - _PAD_B}" fill="transparent">'
            f"<title>{escape(title)}</title></rect>"
        )
    return "".join(parts)


def _stacked_alloc_svg(rows: List[Dict[str, Any]]) -> str:
    """Short vs long allocated bytes per window, stacked areas."""
    short = [row["short_alloc_bytes"] for row in rows]
    total = [row["alloc_bytes"] for row in rows]
    ceiling = _nice_ceiling(max(total) if total else 1)
    parts = [
        f'<svg viewBox="0 0 {_W} {_H}" width="100%" height="{_H}"'
        f' role="img" aria-label="Allocated bytes per window,'
        f' short-lived vs long-lived">'
    ]
    parts.extend(_grid_and_axis(ceiling, "B"))
    # Bottom band: short-lived bytes; top band: the long-lived remainder
    # stacked above it.  The 2px surface-colored stroke under the upper
    # band's top line is the stack's surface gap.
    parts.append(
        f'<path d="{_area_path(total, ceiling)}" fill="currentColor"'
        f' opacity="0.1" class="s2"/>'
    )
    count = len(rows)
    top_points = " ".join(
        f"{_num(_x(i, count))},{_num(_y(v, ceiling))}"
        for i, v in enumerate(total)
    )
    short_points = " ".join(
        f"{_num(_x(i, count))},{_num(_y(v, ceiling))}"
        for i, v in enumerate(short)
    )
    parts.append(
        f'<path d="{_area_path(short, ceiling)}" fill="currentColor"'
        f' opacity="0.1" class="s1"/>'
    )
    parts.append(
        f'<polyline points="{short_points}" fill="none" stroke="#fcfcfb"'
        f' stroke-width="4" stroke-linejoin="round" stroke-linecap="round"'
        f' opacity="0.9"/>'
    )
    parts.append(
        f'<polyline points="{short_points}" fill="none"'
        f' stroke="currentColor" stroke-width="2" class="s1"'
        f' stroke-linejoin="round" stroke-linecap="round"/>'
    )
    parts.append(
        f'<polyline points="{top_points}" fill="none" stroke="currentColor"'
        f' stroke-width="2" class="s2"'
        f' stroke-linejoin="round" stroke-linecap="round"/>'
    )
    titles = [
        f"window {row['index']} [{_fmt_int(row['start'])}"
        f"–{_fmt_int(row['end'])}): "
        f"{_fmt_int(row['alloc_bytes'])} B allocated, "
        f"{_fmt_int(row['short_alloc_bytes'])} B short-lived, "
        f"{_fmt_int(row['allocs'])} objects"
        for row in rows
    ]
    parts.append(_hover_columns(rows, titles))
    parts.append("</svg>")
    return "".join(parts)


def _live_bytes_svg(rows: List[Dict[str, Any]]) -> str:
    """Live bytes at each window's end boundary, single-series area."""
    values = [row["live_bytes_end"] for row in rows]
    ceiling = _nice_ceiling(max(values) if values else 1)
    count = len(values)
    parts = [
        f'<svg viewBox="0 0 {_W} {_H}" width="100%" height="{_H}"'
        f' role="img" aria-label="Live bytes at window boundaries">'
    ]
    parts.extend(_grid_and_axis(ceiling, "B"))
    parts.append(
        f'<path d="{_area_path(values, ceiling)}" fill="currentColor"'
        f' opacity="0.1" class="s1"/>'
    )
    points = " ".join(
        f"{_num(_x(i, count))},{_num(_y(v, ceiling))}"
        for i, v in enumerate(values)
    )
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="currentColor"'
        f' stroke-width="2" class="s1"'
        f' stroke-linejoin="round" stroke-linecap="round"/>'
    )
    if values:
        end_x = _num(_x(count - 1, count))
        end_y = _num(_y(values[-1], ceiling))
        parts.append(
            f'<circle cx="{end_x}" cy="{end_y}" r="6" fill="#fcfcfb"/>'
        )
        parts.append(
            f'<circle cx="{end_x}" cy="{end_y}" r="4"'
            f' fill="currentColor" class="s1"/>'
        )
    titles = [
        f"window {row['index']}: {_fmt_int(row['live_bytes_end'])} B live"
        f" in {_fmt_int(row['live_objects_end'])} objects at boundary"
        for row in rows
    ]
    parts.append(_hover_columns(rows, titles))
    parts.append("</svg>")
    return "".join(parts)


def _sparkline(values: Sequence[float], title: str) -> str:
    """A 120x28 single-series line with an end dot and surface ring."""
    ceiling = max(values) if values and max(values) > 0 else 1.0
    count = len(values)
    if count == 0:
        values, count = [0.0], 1
    step = (_SPARK_W - 10) / max(count - 1, 1)
    coords = [
        (5 + i * step,
         3 + (_SPARK_H - 8) * (1.0 - value / ceiling))
        for i, value in enumerate(values)
    ]
    points = " ".join(f"{_num(x)},{_num(y)}" for x, y in coords)
    end_x, end_y = coords[-1]
    return (
        f'<svg viewBox="0 0 {_SPARK_W} {_SPARK_H}" width="{_SPARK_W}"'
        f' height="{_SPARK_H}" role="img" aria-label="{escape(title)}">'
        f"<title>{escape(title)}</title>"
        f'<polyline points="{points}" fill="none" stroke="currentColor"'
        f' stroke-width="2" class="s1"'
        f' stroke-linejoin="round" stroke-linecap="round"/>'
        f'<circle cx="{_num(end_x)}" cy="{_num(end_y)}" r="5"'
        f' fill="#fcfcfb"/>'
        f'<circle cx="{_num(end_x)}" cy="{_num(end_y)}" r="3"'
        f' fill="currentColor" class="s1"/>'
        f"</svg>"
    )


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------


def _tile(label: str, value: str, extra: str = "") -> str:
    return (
        f'<div class="tile"><div class="label">{escape(label)}</div>'
        f'<div class="value">{escape(value)}</div>{extra}</div>'
    )


def _windows_section(windows_doc: Dict[str, Any]) -> str:
    rows = windows_doc["rows"]
    totals = windows_doc["totals"]
    alloc_rates = [row["alloc_rate"] for row in rows]
    short_fractions = [row["short_fraction"] for row in rows]
    tiles = "".join([
        _tile("objects", _fmt_compact(totals["allocs"])),
        _tile("allocated bytes", _fmt_compact(totals["alloc_bytes"])),
        _tile("short-lived", _fmt_compact(totals["short_allocs"])),
        _tile("sites", _fmt_compact(totals["sites"])),
        _tile("frag bytes", _fmt_compact(totals["frag_bytes"])),
        _tile(
            "alloc rate /KB",
            _fmt_compact(alloc_rates[-1] if alloc_rates else 0),
            _sparkline(alloc_rates, "allocation rate per window"),
        ),
        _tile(
            "short fraction",
            f"{short_fractions[-1]:.2f}" if short_fractions else "0.00",
            _sparkline(short_fractions, "short-lived fraction per window"),
        ),
    ])
    legend = (
        '<div class="legend">'
        '<span><span class="key" style="background:#2a78d6"></span>'
        "short-lived bytes</span>"
        '<span><span class="key" style="background:#eb6834"></span>'
        "all allocated bytes</span></div>"
    )
    return (
        '<section class="card" id="timeline">'
        f"<h2>Windowed time series</h2>"
        f'<p class="sub">{windows_doc["windows"]} windows by'
        f' {escape(windows_doc["axis"])} · byte-time 0–'
        f'{_fmt_int(windows_doc["end_time"])} · threshold'
        f' {_fmt_int(windows_doc["threshold"])} B</p>'
        f'<div class="tiles">{tiles}</div>'
        f"<h2>Allocated bytes per window</h2>{legend}"
        f"{_stacked_alloc_svg(rows)}"
        f"<h2>Live bytes at window boundaries</h2>"
        f"{_live_bytes_svg(rows)}"
        "</section>"
    )


def _drift_section(drift_doc: Optional[Dict[str, Any]], top: int) -> str:
    if not drift_doc:
        return (
            '<section class="card" id="drift"><h2>Lifetime drift</h2>'
            '<p class="sub muted">no drift report attached</p></section>'
        )
    totals = drift_doc["totals"]
    head = (
        f'<p class="sub">{_fmt_int(totals["sites_scored"])} sites scored ·'
        f' {_fmt_int(totals["drifting_sites"])} drifting ·'
        f' {_fmt_int(totals["drift_windows"])} contradicting windows ·'
        f' {escape(drift_doc["classifier"])} classifier</p>'
    )
    drifters = sorted(
        (s for s in drift_doc["sites"] if s["drifting"]),
        key=lambda s: (-s["drift_score"], -s["drift_objects"],
                       tuple(s["chain"])),
    )[:top]
    if not drifters:
        body = (
            '<p class="muted">no drifting sites — the global'
            " classification holds in every window</p>"
        )
    else:
        rows = "".join(
            "<tr>"
            f'<td class="site">{escape(_chain_label(s["chain"]))}</td>'
            f"<td>{escape(s['classification'])}</td>"
            f"<td>{s['drift_score']:.3f}</td>"
            f"<td>{_fmt_int(s['drift_windows'])}</td>"
            f"<td>{_fmt_int(s['drift_objects'])}</td>"
            f"<td>{s['short_fraction']:.3f}</td>"
            "</tr>"
            for s in drifters
        )
        body = (
            '<table><thead><tr><th class="site">site</th><th>class</th>'
            "<th>drift score</th><th>windows</th><th>objects</th>"
            "<th>global short frac</th></tr></thead>"
            f"<tbody>{rows}</tbody></table>"
        )
    return (
        f'<section class="card" id="drift"><h2>Lifetime drift</h2>'
        f"{head}{body}</section>"
    )


def _attribution_section(
    attrib_doc: Optional[Dict[str, Any]], top: int
) -> str:
    if not attrib_doc:
        return (
            '<section class="card" id="attribution">'
            "<h2>Site attribution</h2>"
            '<p class="sub muted">no attribution attached</p></section>'
        )
    if "top_sites" in attrib_doc:
        ranked = attrib_doc["top_sites"][:top]
        site_count = attrib_doc.get("site_count", len(ranked))
    else:
        ranked = sorted(
            attrib_doc.get("sites", []),
            key=lambda s: (-s["total_instr"], -s["bytes"],
                           tuple(s["chain"])),
        )[:top]
        site_count = len(attrib_doc.get("sites", []))
    rows = "".join(
        "<tr>"
        f'<td class="site">{escape(_chain_label(s["chain"]))}</td>'
        f"<td>{_fmt_int(s['total_instr'])}</td>"
        f"<td>{_fmt_int(s['bytes'])}</td>"
        f"<td>{_fmt_int(s.get('frag_byte_time', 0))}</td>"
        f"<td>{_fmt_int(s.get('mispredictions', 0))}</td>"
        "</tr>"
        for s in ranked
    )
    profile = attrib_doc.get("profile", "?")
    return (
        '<section class="card" id="attribution"><h2>Site attribution</h2>'
        f'<p class="sub">{escape(str(profile))} profile ·'
        f" {_fmt_int(site_count)} sites · top {len(ranked)}"
        " by attributed instructions</p>"
        '<table><thead><tr><th class="site">site</th><th>instructions</th>'
        "<th>bytes</th><th>frag·time</th><th>mispred</th></tr></thead>"
        f"<tbody>{rows}</tbody></table></section>"
    )


def _telemetry_section(telemetry_doc: Optional[Dict[str, Any]]) -> str:
    if not telemetry_doc:
        return ""
    totals = telemetry_doc.get("totals", {})
    tiles = "".join(
        _tile(name.replace("_", " "), _fmt_compact(value))
        for name, value in sorted(totals.items())
        if isinstance(value, (int, float))
    )
    return (
        '<section class="card" id="telemetry"><h2>Telemetry summary</h2>'
        f'<p class="sub">{escape(str(telemetry_doc.get("allocator", "?")))}'
        f' allocator · {_fmt_int(telemetry_doc.get("sample_count", 0))}'
        " samples</p>"
        f'<div class="tiles">{tiles}</div></section>'
    )


def _bench_section(bench_history: Optional[List["BenchSession"]]) -> str:
    if not bench_history:
        return ""
    totals = [session.total_instr for session in bench_history]
    rows = "".join(
        "<tr>"
        f"<td>{session.seq:04d}</td>"
        f'<td class="site">'
        f'{escape(str(session.provenance.get("git_sha", "?"))[:10])}'
        "</td>"
        f"<td>{len(session.records)}</td>"
        f"<td>{_fmt_int(round(total))}</td>"
        "</tr>"
        for session, total in zip(bench_history, totals)
    )
    return (
        '<section class="card" id="bench"><h2>Bench trajectory</h2>'
        f'<p class="sub">{len(bench_history)} sessions · total simulated'
        " allocator instructions per session</p>"
        f"{_sparkline(totals, 'total simulated instructions per session')}"
        '<table><thead><tr><th>seq</th><th class="site">git sha</th>'
        "<th>benchmarks</th><th>instructions</th></tr></thead>"
        f"<tbody>{rows}</tbody></table></section>"
    )


def render_report(
    windows_doc: Dict[str, Any],
    drift_doc: Optional[Dict[str, Any]] = None,
    attribution_doc: Optional[Dict[str, Any]] = None,
    telemetry_doc: Optional[Dict[str, Any]] = None,
    bench_history: Optional[List["BenchSession"]] = None,
    generated_at: str = "",
    top: int = 10,
) -> str:
    """Render the single-file run report (deterministic in its inputs).

    ``windows_doc`` is :meth:`~repro.obs.windows.WindowProfile.to_dict`'s
    output (or its JSON export re-read); the optional documents are the
    drift report, an attribution document or summary, a telemetry
    summary, and the bench trajectory's sessions.  ``generated_at`` is
    the one non-derived field — the caller stamps it, so two renders of
    the same inputs with the same stamp are byte-identical.
    """
    program = windows_doc.get("program", "?")
    dataset = windows_doc.get("dataset", "?")
    stamp = (
        f'<p class="sub">generated at {escape(generated_at)}</p>'
        if generated_at else ""
    )
    body = "".join([
        f"<h1>repro-alloc run report — {escape(str(program))}"
        f"/{escape(str(dataset))}</h1>",
        stamp,
        _windows_section(windows_doc),
        _drift_section(drift_doc, top),
        _attribution_section(attribution_doc, top),
        _telemetry_section(telemetry_doc),
        _bench_section(bench_history),
    ])
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width,'
        ' initial-scale=1">\n'
        f"<title>repro-alloc report — {escape(str(program))}"
        f"/{escape(str(dataset))}</title>\n"
        f"<style>\n{_CSS}</style>\n"
        f"</head><body><main>{body}</main></body></html>\n"
    )


def write_report(
    path: Union[str, Path],
    windows_doc: Dict[str, Any],
    **kwargs: Any,
) -> Path:
    """Render and write the report; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = render_report(windows_doc, **kwargs)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    return path

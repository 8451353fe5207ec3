"""Minimal static SVG line plots for CSV monitor files (no plot library)."""

from __future__ import annotations

import csv
import math

from .errors import ConfigError

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _read_csv(path):
    try:
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = [row for row in reader if row]
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc))
    cols = {}
    for i, name in enumerate(header):
        vals = []
        for row in rows:
            try:
                vals.append(float(row[i]))
            except (ValueError, IndexError):
                vals.append(math.nan)
        cols[name] = vals
    return header, cols


def _ticks(lo, hi, n=5):
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    t = math.ceil(lo / step) * step
    out = []
    while t <= hi + 1e-12 * span:
        out.append(t)
        t += step
    return out


def render_line_plot(csv_path, svg_path, x=None, ys=None, width=720, height=440):
    """Render selected CSV columns as SVG polylines against the x column."""
    header, cols = _read_csv(csv_path)
    if not header:
        raise ConfigError("empty CSV: %s" % csv_path)
    xname = x or header[0]
    if xname not in cols:
        raise ConfigError("no column %r in %s" % (xname, csv_path))
    ynames = ys or [h for h in header[1:] if h != xname][:4]
    for yn in ynames:
        if yn not in cols:
            raise ConfigError("no column %r in %s" % (yn, csv_path))

    xs = cols[xname]
    pts = {
        yn: [(xv, yv) for xv, yv in zip(xs, cols[yn]) if math.isfinite(xv) and math.isfinite(yv)]
        for yn in ynames
    }
    all_y = [yv for yn in ynames for _, yv in pts[yn]]
    if not all_y:
        raise ConfigError("nothing to plot in %s" % csv_path)
    finite_x = [v for v in xs if math.isfinite(v)]
    xlo, xhi = min(finite_x), max(finite_x)
    ylo, yhi = min(all_y), max(all_y)
    if yhi <= ylo:
        yhi = ylo + max(1e-12, abs(ylo) * 1e-6)
    if xhi <= xlo:
        xhi = xlo + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo -= pad
    yhi += pad

    ml, mr, mt, mb = 70, 20, 20, 45
    pw = width - ml - mr
    ph = height - mt - mb

    def sx(v):
        return ml + (v - xlo) / (xhi - xlo) * pw

    def sy(v):
        return mt + (yhi - v) / (yhi - ylo) * ph

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'font-family="monospace" font-size="11">' % (width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
        '<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#333"/>'
        % (ml, mt, pw, ph),
    ]
    for t in _ticks(xlo, xhi):
        parts.append(
            '<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#ccc"/>'
            % (sx(t), mt, sx(t), mt + ph)
        )
        parts.append(
            '<text x="%.1f" y="%d" text-anchor="middle">%.4g</text>'
            % (sx(t), mt + ph + 15, t)
        )
    for t in _ticks(ylo, yhi):
        parts.append(
            '<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ccc"/>'
            % (ml, sy(t), ml + pw, sy(t))
        )
        parts.append(
            '<text x="%d" y="%.1f" text-anchor="end">%.4g</text>' % (ml - 5, sy(t) + 4, t)
        )
    for k, yn in enumerate(ynames):
        line = " ".join("%.2f,%.2f" % (sx(xv), sy(yv)) for xv, yv in pts[yn])
        color = _COLORS[k % len(_COLORS)]
        parts.append(
            '<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>' % (line, color)
        )
        parts.append(
            '<text x="%d" y="%d" fill="%s">%s</text>'
            % (ml + 8 + 110 * k, mt + 14, color, yn)
        )
    parts.append(
        '<text x="%d" y="%d" text-anchor="middle">%s</text>'
        % (ml + pw // 2, height - 8, xname)
    )
    parts.append("</svg>")
    with open(svg_path, "w") as fh:
        fh.write("\n".join(parts))

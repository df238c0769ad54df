"""Deterministic experiment plumbing: configs, manifests, CSV and SVG output.

Every run artifact is a pure function of (subcommand, resolved config, seed,
package version).  The manifest records those inputs plus a sha256 over
their canonical JSON; every CSV repeats that hash in a leading comment line
so files can be traced back to the exact run that made them.  Floats are
written with repr so re-parsing is lossless and re-running is byte-exact.
JSON output is strict: a non-finite float raises ValueError instead of
being written as Infinity or NaN, which strict parsers reject, and it
raises before the file (or its directory) is made.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

_PALETTE = ("#1f5fa8", "#c23b22", "#2e8540", "#7d3f98", "#b8860b", "#444444")


# ---------------------------------------------------------------------------
# config handling

def parse_config_text(text: str) -> dict:
    """Parse a key=value config; a JSON object (e.g. a manifest) also works.

    key=value files yield string values for later coercion; '#' starts a
    comment; later assignments win.  For JSON input the "config" field is
    used when present, keeping values typed.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        cfg = obj.get("config", obj)
        if not isinstance(cfg, dict):
            raise ValueError("JSON config must be an object")
        return dict(cfg)
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected key=value, got {raw!r}")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def load_config(path: str) -> dict:
    with open(path) as fh:
        return parse_config_text(fh.read())


def as_int(v) -> int:
    if isinstance(v, bool):
        raise ValueError(f"expected an integer, got {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    return int(str(v).strip())


def as_float(v) -> float:
    if isinstance(v, bool):
        raise ValueError(f"expected a number, got {v!r}")
    x = float(v) if isinstance(v, (int, float)) else float(str(v).strip())
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {v!r}")
    return x


def as_bool(v) -> bool:
    if isinstance(v, bool):
        return v
    s = str(v).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {v!r}")


def as_floats(v) -> list:
    if isinstance(v, (list, tuple)):
        return [as_float(x) for x in v]
    parts = [p for p in str(v).split(",") if p.strip()]
    return [as_float(p) for p in parts]


def as_ints(v) -> list:
    if isinstance(v, (list, tuple)):
        return [as_int(x) for x in v]
    return [as_int(p) for p in str(v).split(",") if p.strip()]


def as_str(v) -> str:
    return str(v)


# ---------------------------------------------------------------------------
# manifests

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def manifest_digest(subcommand: str, config: dict, seed: int, version: str) -> str:
    payload = {"subcommand": subcommand, "config": config,
               "seed": seed, "version": version}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def write_manifest(out_dir: str, subcommand: str, config: dict, seed: int,
                   jobs: int, outputs: list, version: str) -> str:
    """Write manifest.json; returns the run digest.

    jobs and output names are echoed but excluded from the digest: the
    digest covers exactly the inputs that determine the numbers.
    """
    digest = manifest_digest(subcommand, config, seed, version)
    man = {"tool": "orientedcp", "version": version, "subcommand": subcommand,
           "seed": seed, "jobs": jobs, "config": config,
           "outputs": sorted(outputs), "manifest_hash": digest}
    write_json(os.path.join(out_dir, "manifest.json"), man)
    return digest


# ---------------------------------------------------------------------------
# file writers

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _create(path: str):
    """Open ``path`` for writing, making its directory first.

    Runs make their output directory here, at the first write, so a run
    that fails before writing anything leaves no directory behind.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", newline="\n")


def write_csv(path: str, header, rows, digest: str) -> None:
    import csv  # on first use, so start-up imports what it did before

    with _create(path) as fh:
        fh.write(f"# manifest_hash={digest}\n")
        out = csv.writer(fh, lineterminator="\n")  # quotes fields with commas
        out.writerow(header)
        out.writerows([_fmt(v) for v in row] for row in rows)


def write_json(path: str, obj) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    with _create(path) as fh:  # after encoding: a refusal leaves no file
        fh.write(text + "\n")


def write_text(path: str, text: str) -> None:
    with _create(path) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# native SVG line charts (no plotting dependency)

def _ticks(lo: float, hi: float, n: int = 5) -> list:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def line_chart(series, title: str = "", x_label: str = "", y_label: str = "",
               y_reference: float | None = None) -> str:
    """Deterministic 720 x 480 SVG line chart with optional error bars.

    series: iterables of dicts with keys label, x, y and optional yerr.
    Coordinates are formatted to fixed precision so output is byte-stable.
    """
    width, height = 720, 480
    series = list(series)
    xs = [float(x) for s in series for x in s["x"]]
    ys = [float(y) for s in series for y in s["y"]]
    for s in series:
        for y, e in zip(s["y"], s.get("yerr") or [0.0] * len(s["y"])):
            ys.extend([float(y) - float(e), float(y) + float(e)])
    if y_reference is not None:
        ys.append(float(y_reference))
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 <= x0:
        x0, x1 = x0 - 0.5, x0 + 0.5
    if y1 <= y0:
        y0, y1 = y0 - 0.5, y0 + 0.5
    pad_y = 0.06 * (y1 - y0)
    y0, y1 = y0 - pad_y, y1 + pad_y
    ml, mr, mt, mb = 64, 16, 36, 48

    def sx(v):
        return ml + (float(v) - x0) / (x1 - x0) * (width - ml - mr)

    def sy(v):
        return height - mb - (float(v) - y0) / (y1 - y0) * (height - mt - mb)

    def f(v):
        return f"{v:.2f}"

    el = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
          f'viewBox="0 0 {width} {height}">',
          f'<rect width="{width}" height="{height}" fill="#ffffff"/>']
    if title:
        el.append(f'<text x="{width // 2}" y="20" text-anchor="middle" '
                  f'font-family="monospace" font-size="14">{title}</text>')
    # frame and ticks
    el.append(f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" '
              f'height="{height - mt - mb}" fill="none" stroke="#999999"/>')
    for tx in _ticks(x0, x1):
        el.append(f'<line x1="{f(sx(tx))}" y1="{height - mb}" x2="{f(sx(tx))}" '
                  f'y2="{height - mb + 4}" stroke="#999999"/>')
        el.append(f'<text x="{f(sx(tx))}" y="{height - mb + 18}" text-anchor="middle" '
                  f'font-family="monospace" font-size="11">{tx:.4g}</text>')
    for ty in _ticks(y0, y1):
        el.append(f'<line x1="{ml - 4}" y1="{f(sy(ty))}" x2="{ml}" '
                  f'y2="{f(sy(ty))}" stroke="#999999"/>')
        el.append(f'<text x="{ml - 8}" y="{f(sy(ty) + 4)}" text-anchor="end" '
                  f'font-family="monospace" font-size="11">{ty:.4g}</text>')
    if x_label:
        el.append(f'<text x="{width // 2}" y="{height - 8}" text-anchor="middle" '
                  f'font-family="monospace" font-size="12">{x_label}</text>')
    if y_label:
        el.append(f'<text x="14" y="{height // 2}" text-anchor="middle" '
                  f'font-family="monospace" font-size="12" '
                  f'transform="rotate(-90 14 {height // 2})">{y_label}</text>')
    if y_reference is not None:
        yr = f(sy(y_reference))
        el.append(f'<line x1="{ml}" y1="{yr}" x2="{width - mr}" y2="{yr}" '
                  f'stroke="#888888" stroke-dasharray="6,4"/>')
    for k, s in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{f(sx(x))},{f(sy(y))}" for x, y in zip(s["x"], s["y"]))
        el.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                  f'stroke-width="1.5"/>')
        for x, y in zip(s["x"], s["y"]):
            el.append(f'<circle cx="{f(sx(x))}" cy="{f(sy(y))}" r="2.5" '
                      f'fill="{color}"/>')
        if s.get("yerr") is not None:
            for x, y, e in zip(s["x"], s["y"], s["yerr"]):
                el.append(f'<line x1="{f(sx(x))}" y1="{f(sy(y - e))}" '
                          f'x2="{f(sx(x))}" y2="{f(sy(y + e))}" '
                          f'stroke="{color}"/>')
        if s.get("label"):
            el.append(f'<text x="{width - mr - 8}" y="{mt + 16 + 16 * k}" '
                      f'text-anchor="end" font-family="monospace" font-size="12" '
                      f'fill="{color}">{s["label"]}</text>')
    el.append("</svg>")
    return "\n".join(el) + "\n"

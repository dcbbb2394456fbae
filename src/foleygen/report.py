"""Waveform SVG plotting and the validation loss table."""

from __future__ import annotations

import csv
from xml.etree import ElementTree as ET

import numpy as np

from .avio import AudioBuffer
from .errors import FormatError, ParameterError

_SVG = "http://www.w3.org/2000/svg"


def _read_waveform_csv(csv_path):
    rows = []
    try:
        with open(csv_path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None:
                raise FormatError(f"{csv_path}: empty waveform CSV")
            for line in reader:
                if len(line) < 3:
                    raise FormatError(
                        f"{csv_path}: row {line!r} needs index,left,right"
                    )
                rows.append((float(line[1]), float(line[2])))
    except (OSError, ValueError) as e:
        raise FormatError(f"{csv_path}: malformed waveform CSV ({e})") from e
    if not rows:
        raise FormatError(f"{csv_path}: waveform CSV has no samples")
    return np.array(rows)


def plot_waveform(csv_path, spf: int, out_svg, sample_rate: int = 8820) -> None:
    """Render both channels as polylines with a marker at every frame start.

    Markers sit at samples 0, spf, 2*spf, ...; len//spf markers total.
    The x axis is labeled in both samples and seconds. The samples and the
    rate must make a valid ``AudioBuffer``.
    """
    if spf < 1:
        raise ParameterError(f"spf must be >= 1, got {spf}")
    wave = AudioBuffer(_read_waveform_csv(csv_path), sample_rate).samples
    n = len(wave)
    width, height = 900.0, 300.0
    pad = 40.0
    ET.register_namespace("", _SVG)
    svg = ET.Element(f"{{{_SVG}}}svg", {
        "width": str(int(width)), "height": str(int(height)),
        "viewBox": f"0 0 {width} {height}",
    })

    def xpos(i):
        return pad + (width - 2 * pad) * (i / max(n - 1, 1))

    def ypos(v):
        return height / 2 - v * (height / 2 - pad)

    n_markers = n // spf
    for k in range(n_markers):
        x = xpos(k * spf)
        ET.SubElement(svg, f"{{{_SVG}}}line", {
            "x1": f"{x:.2f}", "y1": str(pad), "x2": f"{x:.2f}",
            "y2": str(height - pad), "stroke": "orange",
            "stroke-width": "1", "class": "frame-marker",
        })
    # xpos and ypos over whole arrays: the same float ops, so the same text
    xs = xpos(np.arange(n)).tolist()
    for color, ys in zip(("steelblue", "seagreen"), ypos(wave.T).tolist()):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        ET.SubElement(svg, f"{{{_SVG}}}polyline", {
            "points": pts, "fill": "none", "stroke": color,
            "stroke-width": "0.8",
        })
    label = ET.SubElement(svg, f"{{{_SVG}}}text", {
        "x": str(width / 2), "y": str(height - 8), "text-anchor": "middle",
        "font-size": "12",
    })
    label.text = (
        f"samples 0..{n - 1}  ({n / sample_rate:.3f} s at {sample_rate} Hz)"
    )
    ylabel = ET.SubElement(svg, f"{{{_SVG}}}text", {
        "x": "12", "y": str(height / 2), "font-size": "12",
    })
    ylabel.text = "amplitude"
    ET.ElementTree(svg).write(out_svg, xml_declaration=True, encoding="unicode")


def format_loss(v: float) -> str:
    """5-decimal fixed point, switching to 5-decimal scientific for tiny values."""
    if v != 0.0 and abs(v) < 1e-3:
        return f"{v:.5e}"
    return f"{v:.5f}"


_MODEL_COLUMNS = (
    ("deep_fusion", "Deep Fusion"),
    ("wavenet", "Wavenet-based"),
    ("transformer", "Aud & Vid Transformer"),
)


def loss_table(rows) -> str:
    """Format (video, model_kind, loss) records as a per-video loss table."""
    if not rows:
        raise FormatError("loss_table needs at least one row")
    videos: dict[str, dict[str, float]] = {}
    for video, model_kind, value in rows:
        videos.setdefault(video, {})[model_kind] = value
    headers = ["Test Video"] + [label for _, label in _MODEL_COLUMNS]
    table = [headers]
    for video, cells in videos.items():
        line = [video]
        for kind, _ in _MODEL_COLUMNS:
            line.append(format_loss(cells[kind]) if kind in cells else "")
        table.append(line)
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    out = []
    for i, r in enumerate(table):
        out.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        if i == 0:
            out.append("-+-".join("-" * w for w in widths))
    return "\n".join(out) + "\n"

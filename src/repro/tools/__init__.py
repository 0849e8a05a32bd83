"""Developer tools: disassembler, trace timeline, and map rendering."""

from repro.tools.chrome_trace import write_chrome_trace
from repro.tools.disasm import disassemble, format_instruction, layer_summary
from repro.tools.mapviz import render_map, render_merged
from repro.tools.report import network_report
from repro.tools.timeline import render_timeline, utilisation_report

__all__ = [
    "disassemble",
    "format_instruction",
    "layer_summary",
    "network_report",
    "render_map",
    "render_merged",
    "render_timeline",
    "utilisation_report",
    "write_chrome_trace",
]

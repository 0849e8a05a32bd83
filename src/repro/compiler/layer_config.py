"""Per-layer execution descriptors shared by compiler, simulator and IAU.

A :class:`LayerConfig` is the static configuration the accelerator needs for
one layer: what the CALC datapath computes, the shapes involved, and which
DDR regions hold the operands.  In the real design these live in per-layer
configuration words of the instruction stream; here they form a table indexed
by the ``layer_id`` field of every instruction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CompileError
from repro.nn.tensor import TensorShape

#: Datapath operations a layer can map to.
LAYER_KINDS = ("conv", "depthwise", "pool", "add", "global")


@dataclass(frozen=True)
class LayerConfig:
    """Static accelerator-side description of one network layer."""

    layer_id: int
    name: str
    kind: str
    in_shape: TensorShape
    out_shape: TensorShape
    input_region: str
    output_region: str
    kernel: tuple[int, int] = (1, 1)
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)
    relu: bool = False
    bias: bool = False
    shift: int = 0
    #: pool: "max"/"avg"; global: "max"/"avg"/"gem".
    mode: str = ""
    gem_p: float = 3.0
    in2_shape: TensorShape | None = None
    input2_region: str | None = None
    weight_region: str | None = None
    bias_region: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in LAYER_KINDS:
            raise CompileError(f"layer {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "add" and (self.in2_shape is None or self.input2_region is None):
            raise CompileError(f"add layer {self.name!r} needs a second operand")
        if self.kind in ("conv", "depthwise") and self.weight_region is None:
            raise CompileError(f"{self.kind} layer {self.name!r} needs a weight region")
        if self.shift < 0:
            raise CompileError(f"layer {self.name!r}: negative requantization shift")
        if self.output_region in (self.input_region, self.input2_region):
            # An in-place layer would read its own writes; a batched
            # functional stretch recomputes a layer from its inputs in DDR.
            raise CompileError(
                f"layer {self.name!r}: output region {self.output_region!r} is also "
                f"one of its input regions"
            )

    @property
    def has_weights(self) -> bool:
        return self.weight_region is not None

    @property
    def in_channels(self) -> int:
        return self.in_shape.channels

    @property
    def out_channels(self) -> int:
        return self.out_shape.channels

    def input_rows_for(self, out_row0: int, out_rows: int) -> tuple[int, int]:
        """Input row span (clamped to the feature map) that a window of
        output rows ``[out_row0, out_row0+out_rows)`` reads."""
        if self.kind == "global":
            return 0, self.in_shape.height
        if self.kind == "add":
            return out_row0, out_rows
        sh = self.stride[0]
        kh = self.kernel[0]
        ph = self.padding[0]
        start = out_row0 * sh - ph
        stop = (out_row0 + out_rows - 1) * sh - ph + kh
        start = max(start, 0)
        stop = min(stop, self.in_shape.height)
        if stop <= start:
            raise CompileError(
                f"layer {self.name!r}: output rows [{out_row0}, {out_row0 + out_rows}) "
                f"read no valid input rows"
            )
        return start, stop - start

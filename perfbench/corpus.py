"""Seeded inputs, the served model, and the serial oracle.

Every workload runs the serving-default shape: the serving DAG (resize the
short side to 48, centre-crop 32, float32, normalize, CHW) in front of a
mini-ResNet-18.  The model is built from a fixed seed so that every run
measures the same program; only the inputs follow ``--seed``.
"""

from __future__ import annotations

import numpy as np

from repro.codecs.formats import get_input_format
from repro.datasets.store import MultiResolutionStore
from repro.datasets.synthetic import SyntheticImageGenerator
from repro.nn.model import Sequential, build_mini_resnet
from repro.preprocessing.dag import PreprocessingDAG
from repro.serving.session import serving_pipeline_ops

NUM_CLASSES = 10
MODEL_DEPTH = 18
MODEL_SEED = 0
RESIZE = 48
CROP = 32

#: Source resolution of the scan corpus: the catalogue's full-resolution
#: short side, so ``full-jpeg`` and the 161 thumbnails really differ.
SOURCE_SIZE = 375

#: Served payloads are small decoded frames (height x width).
PAYLOAD_SHAPE = (40, 48)


def build_dag() -> PreprocessingDAG:
    return PreprocessingDAG.from_ops(
        serving_pipeline_ops(input_size=RESIZE, crop_size=CROP))


def build_model() -> Sequential:
    return build_mini_resnet(MODEL_DEPTH, num_classes=NUM_CLASSES,
                             input_size=CROP, seed=MODEL_SEED)


def scan_store(seed: int, count: int, format_name: str
               ) -> tuple[MultiResolutionStore, list[str]]:
    """Generate ``count`` 375x375 sources and ingest only ``format_name``."""
    generator = SyntheticImageGenerator(NUM_CLASSES, image_size=SOURCE_SIZE,
                                        seed=seed)
    store = MultiResolutionStore([get_input_format(format_name)])
    ids = [store.ingest(generator.generate_image(i % NUM_CLASSES, i))
           for i in range(count)]
    return store, ids


def serve_payloads(seed: int, count: int) -> list[np.ndarray]:
    """``count`` distinct decoded payloads of :data:`PAYLOAD_SHAPE`."""
    height, width = PAYLOAD_SHAPE
    generator = SyntheticImageGenerator(NUM_CLASSES, image_size=width,
                                        seed=seed)
    return [generator.generate_image(i % NUM_CLASSES, i).pixels[:height]
            for i in range(count)]


def serial_oracle(arrays, dag: PreprocessingDAG,
                  model: Sequential) -> list[int]:
    """Reference class of each decoded array: DAG, then predict at batch 1."""
    return [int(model.predict(dag.execute(array)[None].astype(np.float32))[0])
            for array in arrays]

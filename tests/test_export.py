"""Tests for image export and contact sheets."""

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.visual.export import (
    contact_sheet,
    export_dataset_figures,
    load_pgm,
    save_pgm,
)


class TestPgm:
    def test_round_trip(self, tmp_path):
        image = np.arange(48, dtype=np.uint8).reshape(6, 8)
        path = save_pgm(tmp_path / "x.pgm", image)
        restored = load_pgm(path)
        assert (restored == image).all()

    def test_rejects_color(self, tmp_path):
        with pytest.raises(ValueError):
            save_pgm(tmp_path / "x.pgm",
                     np.zeros((4, 4, 3), dtype=np.uint8))

    def test_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            save_pgm(tmp_path / "x.pgm", np.zeros((4, 4), dtype=np.int32))

    def test_load_rejects_non_pgm(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6 2 2 255\n" + bytes(12))
        with pytest.raises(ValueError):
            load_pgm(path)


class TestComposition:

    def test_contact_sheet_shape(self, chipvqa):
        questions = list(chipvqa)[:6]
        sheet = contact_sheet(questions, columns=3)
        assert sheet.ndim == 2
        assert (sheet < 255).any()

    def test_contact_sheet_validation(self, chipvqa):
        with pytest.raises(ValueError):
            contact_sheet([], columns=2)
        with pytest.raises(ValueError):
            contact_sheet(list(chipvqa)[:2], columns=0)


class TestDatasetExport:
    def test_export_with_limit(self, chipvqa, tmp_path):
        written = export_dataset_figures(chipvqa, tmp_path, limit=3)
        assert len(written) == 3
        for path in written:
            image = load_pgm(path)
            assert image.size > 0

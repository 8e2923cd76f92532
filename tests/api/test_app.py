"""REST endpoint tests against the DataLens controller."""

import pytest

from repro.api import TestClient, create_app
from repro.core import DataLens


@pytest.fixture
def client(tmp_path, nasa_dirty):
    lens = DataLens(tmp_path / "workspace", seed=0)
    lens.ingest_frame("nasa", nasa_dirty.dirty)
    return TestClient(create_app(lens))


class TestDatasets:
    def test_health(self, client):
        response = client.get("/health")
        assert response.status == 200
        assert response.body["datasets"] == ["nasa"]

    def test_preview(self, client):
        response = client.get("/datasets/nasa", query={"limit": "5"})
        assert response.status == 200
        assert response.body["num_rows"] == 1503
        assert len(response.body["rows"]) == 5

    def test_unknown_dataset_404(self, client):
        assert client.get("/datasets/ghost").status == 404

    def test_ingest_records(self, client):
        response = client.post(
            "/datasets",
            {"name": "tiny", "records": [{"a": 1}, {"a": 2}]},
        )
        assert response.status == 200
        assert response.body["shape"] == [2, 1]

    def test_ingest_csv_text(self, client):
        response = client.post(
            "/datasets", {"name": "csvd", "csv_text": "a,b\n1,x\n"}
        )
        assert response.body["shape"] == [1, 2]

    def test_ingest_preloaded(self, client):
        response = client.post(
            "/datasets", {"name": "h", "preloaded": "hospital"}
        )
        assert response.body["dataset"] == "hospital"

    def test_ingest_requires_payload(self, client):
        assert client.post("/datasets", {"name": "x"}).status == 422


class TestPipelineEndpoints:
    def test_profile(self, client):
        response = client.get("/datasets/nasa/profile")
        assert response.status == 200
        assert response.body["overview"]["rows"] == 1503

    def test_quality(self, client):
        response = client.get("/datasets/nasa/quality")
        assert 0.0 <= response.body["overall"] <= 1.0

    def test_detect_then_detections(self, client):
        response = client.post(
            "/datasets/nasa/detect", {"tools": ["iqr", "mv_detector"]}
        )
        assert response.status == 200
        assert response.body["num_cells"] > 0
        listing = client.get("/datasets/nasa/detections")
        assert listing.body["num_cells"] == response.body["num_cells"]
        assert "iqr" in listing.body["summary"]

    def test_detect_requires_tools(self, client):
        assert client.post("/datasets/nasa/detect", {}).status == 422

    def test_repair_flow(self, client):
        client.post("/datasets/nasa/detect", {"tools": ["mv_detector"]})
        response = client.post(
            "/datasets/nasa/repair", {"tool": "standard_imputer"}
        )
        assert response.status == 200
        assert response.body["version_after_repair"] == 1

    def test_repair_without_detection_400(self, client):
        assert client.post("/datasets/nasa/repair", {}).status == 400

    def test_datasheet(self, client):
        client.post("/datasets/nasa/detect", {"tools": ["iqr"]})
        response = client.get("/datasets/nasa/datasheet")
        assert response.body["dataset"]["name"] == "nasa"
        assert response.body["detection"]["num_erroneous_cells"] > 0


class TestRulesAndLabels:
    def test_rule_discovery_and_listing(self, client):
        response = client.post(
            "/datasets/nasa/rules/discover", {"algorithm": "approximate"}
        )
        assert response.status == 200
        listing = client.get("/datasets/nasa/rules")
        assert listing.status == 200

    def test_custom_rule_via_put(self, client):
        response = client.put(
            "/datasets/nasa/rules",
            {"determinants": ["Frequency"], "dependent": "Angle"},
        )
        assert response.status == 200
        assert response.body["status"] == "confirmed"

    def test_label_endpoint(self, client):
        response = client.put(
            "/datasets/nasa/labels",
            {"row": 0, "column": "Angle", "is_dirty": True},
        )
        assert response.body["labels"] == 1

    def test_label_bad_cell(self, client):
        response = client.put(
            "/datasets/nasa/labels",
            {"row": 10**6, "column": "Angle", "is_dirty": True},
        )
        assert response.status == 404

    def test_tag_endpoint(self, client):
        response = client.post("/datasets/nasa/tags", {"value": 99999})
        assert "99999" in response.body["tagged_values"]


class TestVersions:
    def test_version_listing_and_restore(self, client):
        client.post("/datasets/nasa/detect", {"tools": ["mv_detector"]})
        client.post("/datasets/nasa/repair", {"tool": "standard_imputer"})
        versions = client.get("/datasets/nasa/versions")
        assert len(versions.body["versions"]) == 2
        response = client.post(
            "/datasets/nasa/versions/restore", {"version": 0}
        )
        assert response.body["new_version"] == 2


@pytest.fixture
def spilled_lens(tmp_path, nasa_dirty):
    """nasa in a session that runs out-of-core: 257-row chunks, 64 KiB."""
    lens = DataLens(
        tmp_path / "spilled",
        seed=0,
        chunk_size=257,
        spill_budget=64 * 1024,
        spill_dir=tmp_path / "spill",
    )
    lens.ingest_frame("nasa", nasa_dirty.dirty)
    return lens


def _spilled_columns(session) -> list[str]:
    frame = session.frame
    return [
        name
        for name in frame.column_names
        if getattr(frame.column(name), "spilled", False)
    ]


class TestSortedPreview:
    def test_sort_by_and_descending_order_rows(self, client):
        response = client.get(
            "/datasets/nasa",
            query={"sort_by": "Angle,Frequency", "descending": "1",
                   "limit": "50"},
        )
        assert response.status == 200
        keys = [(row["Angle"], row["Frequency"]) for row in response.body["rows"]]
        present = [key for key in keys if None not in key]
        assert len(keys) == 50 and present
        assert present == sorted(present, reverse=True)
        ascending = client.get(
            "/datasets/nasa", query={"sort_by": "Angle", "limit": "50"}
        ).body["rows"]
        angles = [row["Angle"] for row in ascending if row["Angle"] is not None]
        assert angles == sorted(angles)

    def test_unknown_sort_column_is_422(self, client):
        response = client.get("/datasets/nasa", query={"sort_by": "ghost"})
        assert response.status == 422

    def test_sort_on_spilled_session_keeps_frame_spilled(
        self, client, spilled_lens
    ):
        """A read must not densify the stored frame. The query carries
        ``sort_strategy=memory``, which the server ignores: nothing a
        client sends may pick the plan and un-spill the session frame
        under a read guard."""
        session = spilled_lens.session("nasa")
        names = session.frame.column_names
        assert _spilled_columns(session) == names
        spilled_client = TestClient(create_app(spilled_lens))
        query = {"sort_by": "Angle", "descending": "1", "limit": "2000",
                 "sort_strategy": "memory"}
        response = spilled_client.get("/datasets/nasa", query=query)
        assert response.status == 200
        assert _spilled_columns(session) == names
        resident = client.get("/datasets/nasa", query=query)
        assert response.body["rows"] == resident.body["rows"]
        assert len(response.body["rows"]) == 1503

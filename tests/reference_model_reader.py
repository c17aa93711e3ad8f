"""The model-file reader as it was before it streamed its input, kept as
the reference for the differential test in `test_ingest.py`. Its one change
since is the rule the streaming reader gained later: customers must be >= 1.

It decodes the whole file, splits it with `str.splitlines` and only then
parses; the streaming reader must give the same payload, or the same
error type, line and message, on every file. The fuzz edits files that the
writer left a memo beside, so the package reader must also ignore a memo
once its text has been edited.
"""

from pathlib import Path

import numpy as np

from tarifflab.errors import ModelFileError
from tarifflab.ingest import MODEL_FORMAT, ModelFilePayload
from tarifflab.model import scenario_moments


def _read_utf8(path: Path, error) -> str:
    """The file's text, newlines untranslated; a byte that is not UTF-8
    raises `error(line, reason)` with the 1-based line it sits on."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(
            line, f"not UTF-8: byte {data[exc.start]:#04x} ({exc.reason})"
        ) from None


def _parse_floats(path, line_no: int, text: str, expect: int, what: str) -> np.ndarray:
    parts = text.split()
    if len(parts) != expect:
        raise ModelFileError(
            path, line_no, f"{what}: expected {expect} values, got {len(parts)}"
        )
    try:
        out = np.array([float(p) for p in parts])
    except ValueError:
        raise ModelFileError(path, line_no, f"{what}: non-numeric value") from None
    if not np.isfinite(out).all():
        raise ModelFileError(path, line_no, f"{what}: non-finite value")
    return out


def read_model_file(path) -> ModelFilePayload:
    """Parse a model file into its raw payload.

    Structural problems (missing keys, wrong counts, non-finite numbers,
    inconsistent stored moments) raise ModelFileError with file/line context.
    Semantic conditions on G (symmetry, positive definiteness) are *not*
    enforced here; `to_model` applies them, and the check command reports
    them as named diagnostics.
    """
    path = Path(path)
    entries: dict[str, tuple[int, str]] = {}
    provenance: dict[str, str] = {}
    text = _read_utf8(path, lambda line, reason: ModelFileError(path, line, reason))
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ModelFileError(path, line_no, f"expected 'key = value', got {raw!r}")
        key = key.strip()
        if key.startswith("provenance."):
            provenance[key[len("provenance."):]] = value
            continue
        if key in entries:
            raise ModelFileError(path, line_no, f"duplicate key {key!r}")
        entries[key] = (line_no, value.strip())

    def need(key: str) -> tuple[int, str]:
        if key not in entries:
            raise ModelFileError(path, None, f"missing key {key!r}")
        return entries[key]

    line_no, fmt = need("format")
    if fmt != MODEL_FORMAT:
        raise ModelFileError(path, line_no, f"unsupported format {fmt!r}")

    def need_int(key: str) -> int:
        line_no, text = need(key)
        try:
            return int(text)
        except ValueError:
            raise ModelFileError(path, line_no, f"{key} must be an integer") from None

    periods = need_int("periods")
    customers = need_int("customers")
    if periods < 1:
        raise ModelFileError(path, entries["periods"][0], "periods must be >= 1")
    if customers < 1:
        raise ModelFileError(path, entries["customers"][0], "customers must be >= 1")
    count = need_int("scenario_count")
    if count < 1:
        raise ModelFileError(path, entries["scenario_count"][0], "need scenarios")

    line_no, text = need("g")
    G = _parse_floats(path, line_no, text, periods * periods, "g").reshape(
        periods, periods
    )
    # rows come from the parsed entries, so a scenario_count larger than the
    # file stops at the first missing key instead of allocating up front
    rows: dict[str, list[np.ndarray]] = {"lambda": [], "omega": []}
    for j in range(count):
        for kind, out in rows.items():
            key = f"scenario.{j}.{kind}"
            if key not in entries:
                raise ModelFileError(
                    path, entries["scenario_count"][0],
                    f"scenario_count is {count} but {key!r} is missing",
                )
            line_no, text = entries[key]
            out.append(_parse_floats(path, line_no, text, periods, key))
    lams, omegas = np.array(rows["lambda"]), np.array(rows["omega"])

    # stored moments are derived; verify them against the scenarios so silent
    # file edits are caught at load time
    lambda_bar, omega_bar, sigma = scenario_moments(lams, omegas)
    for key, expect_vals, expect_n in (
        ("lambda_bar", lambda_bar, periods),
        ("omega_bar", omega_bar, periods),
    ):
        line_no, text = need(key)
        stored = _parse_floats(path, line_no, text, expect_n, key)
        scale = max(1.0, float(np.abs(expect_vals).max()))
        if float(np.abs(stored - expect_vals).max()) > 1e-9 * scale:
            raise ModelFileError(path, line_no, f"{key} disagrees with scenarios")
    line_no, text = need("sigma_lambda_omega")
    stored_sigma = _parse_floats(
        path, line_no, text, periods * periods, "sigma_lambda_omega"
    ).reshape(periods, periods)
    scale = max(1.0, float(np.abs(sigma).max()))
    if float(np.abs(stored_sigma - sigma).max()) > 1e-9 * scale:
        raise ModelFileError(path, line_no, "sigma_lambda_omega disagrees with scenarios")

    flat_rate = None
    charge = None
    if "baseline.flat_rate" in entries:
        line_no, text = entries["baseline.flat_rate"]
        flat_rate = float(_parse_floats(path, line_no, text, 1, "baseline.flat_rate")[0])
    if "baseline.connection_charge" in entries:
        line_no, text = entries["baseline.connection_charge"]
        charge = float(
            _parse_floats(path, line_no, text, 1, "baseline.connection_charge")[0]
        )

    return ModelFilePayload(
        periods=periods,
        customers=customers,
        G=G,
        lams=lams,
        omegas=omegas,
        baseline_flat_rate=flat_rate,
        baseline_connection_charge=charge,
        provenance=provenance,
    )

import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "lorentz3" / "schemas"


@pytest.fixture(scope="session")
def schema_validator():
    """Validator factory over the shipped schemas.  Each validator is built
    from its own schema alone, with no registry of the others."""
    validators = {
        path.name.removesuffix(".schema.json"): Draft202012Validator(
            json.loads(path.read_text(encoding="utf-8"))
        )
        for path in SCHEMA_DIR.glob("*.schema.json")
    }

    def validate(schema_name: str, payload: dict) -> None:
        validators[schema_name].validate(payload)

    return validate

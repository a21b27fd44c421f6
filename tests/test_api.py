import inspect
import pathlib
import re

import sirpool
from sirpool import theory

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_top_level_names_match_readme():
    # the first sentence of the Library section's "Top-level names:" paragraph
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listing = library.split("\nTop-level names:", 1)[1].split(". ", 1)[0]
    documented = set(re.findall(r"`(\w+)`", listing))
    assert documented == {"SimConfig", "ConfigError", "POLICIES", "TrajectoryStats",
                          "run_experiment", "empirical_epsilon_time", "__version__"}
    assert set(sirpool.__all__) == documented
    assert len(sirpool.__all__) == len(documented)
    for name in sirpool.__all__:
        assert getattr(sirpool, name) is not None


def test_theory_module_entry_names_its_public_api():
    # the Modules bullet that starts "- `sirpool.theory`", up to the next bullet
    text = README.read_text(encoding="utf-8")
    entry = text.split("\n- `sirpool.theory` —", 1)[1].split("\n- ", 1)[0]
    documented = set(re.findall(r"`(\w+)`", entry))
    defined = {name for name, obj in vars(theory).items()
               if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == theory.__name__}
    assert documented == defined

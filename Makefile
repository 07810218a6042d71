PYTHON ?= python3

.PHONY: install test accept verify refset refset-diff bench bench-smoke bench-record bench-pairs lines

# An editable install without build isolation builds with the installed setuptools, which
# pyproject.toml wants at >= 68, and needs wheel; pip checks neither, so check both first.
define INSTALL_CHECK
import importlib.metadata as md
def version(name):
    try:
        return md.version(name)
    except md.PackageNotFoundError:
        return None
setuptools = version("setuptools")
missing = [] if setuptools and int(setuptools.split(".")[0]) >= 68 else [f"setuptools >= 68 (found {setuptools})"]
missing += [] if version("wheel") else ["wheel (not installed)"]
if missing:
    raise SystemExit(f"error: make install needs {' and '.join(missing)}; the make targets run from src/ without installing")
endef
export INSTALL_CHECK

install:
	@$(PYTHON) -c "$$INSTALL_CHECK"
	$(PYTHON) -m pip install -e . --no-build-isolation

# the tier-1 command, as CI runs it
test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -X dev -m pytest -q --continue-on-collection-errors

accept:
	PYTHONPATH=src $(PYTHON) -m pytest -s -q tests/test_acceptance.py

# verify and refset run under tier-1's warning policy: a RuntimeWarning (a non-finite path) fails them
verify:
	PYTHONPATH=src $(PYTHON) -X dev -W error::RuntimeWarning scripts/verify_reference_values.py

# solves the 381-solve reference set and prints how they ended; exits 1 on a raising or unconverged solve;
# make refset ROWS=FILE also writes one line per solve to FILE, for a diff against another tree's
refset:
	PYTHONPATH=src $(PYTHON) -X dev -W error::RuntimeWarning scripts/reference_set.py $(if $(ROWS),--rows $(ROWS))

# make refset-diff REF=<commit>: the reference-set rows of REF's src/ against this tree's, counted and listed
refset-diff:
	$(PYTHON) scripts/refset_diff.py --ref $(REF)

bench:
	$(PYTHON) perfbench/run.py

# one smoke-size pass of every workload that BENCHMARK.json lists
bench-smoke:
	for w in $$($(PYTHON) -c "import json; print(*(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))"); do \
		$(PYTHON) perfbench/run.py --workload $$w --seconds 0 --size smoke || exit 1; \
	done

# make bench-record PR=N writes BENCH_N.json (end-to-end metrics of every workload)
bench-record:
	$(PYTHON) scripts/bench_record.py --pr $(PR)

# make bench-pairs REF=<commit> W=<workload> [PAIRS=N] [SEED=S]: alternating runs of REF and the working tree;
# W="<workload> <workload>" runs several and W=all every workload of BENCHMARK.json, one report each
bench-pairs:
	$(PYTHON) scripts/bench_pairs.py --ref $(REF) --workload $(W) $(if $(PAIRS),--pairs $(PAIRS)) $(if $(SEED),--seed $(SEED))

# each src/choiopt module's lines (wc -l) and code lines (tokenize, without docstrings, comments and blank lines), with totals;
# make lines REF=<commit> also prints each module's counts at that commit, the change, and same_code:
# yes when the module's AST without docstrings equals the commit's
lines:
	$(PYTHON) scripts/line_count.py $(if $(REF),--ref $(REF))

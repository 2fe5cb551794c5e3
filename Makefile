# Convenience targets for the Information Bus reproduction.

PYTHON ?= python

.PHONY: install test bench ledger-ab pytest-bench goldens lint examples quicktest all clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) benchmarks/ledger/run.py

# alternating parent/change pairs of the ledger: make ledger-ab PARENT=<rev>
ledger-ab:
	$(PYTHON) tools/ledger_ab.py $(PARENT)

pytest-bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# regenerate the golden files (only for a deliberate wire/format change),
# under two hash seeds: a file the second run changes is not a golden
GOLDEN_TESTS = tests/integration/test_golden_run.py \
               tests/objects/test_marshal_golden.py \
               tests/objects/test_wire_golden.py
GOLDEN_FILES = tests/integration/golden_run.json \
               tests/objects/golden_marshal.json \
               tests/objects/golden_wire.json

goldens:
	@set -e; for seed in 0 1; do \
	    for test in $(GOLDEN_TESTS); do \
	        PYTHONHASHSEED=$$seed PYTHONPATH=src $(PYTHON) $$test; \
	    done; \
	    sums=$$(cksum $(GOLDEN_FILES)); \
	    if [ $$seed = 1 ] && [ "$$sums" != "$$first" ]; then \
	        echo "goldens: PYTHONHASHSEED=1 changed a file:"; \
	        echo "$$first"; echo "$$sums"; exit 1; \
	    fi; \
	    first=$$sums; \
	done

lint:
	ruff check .

examples:
	$(PYTHON) -m repro all

quicktest:
	$(PYTHON) -m pytest tests/ -x -q --ignore=tests/properties \
	    --ignore=tests/integration

all: test bench

clean:
	rm -rf .pytest_cache .hypothesis build *.egg-info src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +

# Convenience targets for the Information Bus reproduction.

PYTHON ?= python

.PHONY: install test bench ledger-ab pytest-bench lint examples quicktest all clean

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

lint:
	ruff check src tests benchmarks tools

examples:
	$(PYTHON) -m repro all

quicktest:
	$(PYTHON) -m pytest tests/ -x -q --ignore=tests/properties \
	    --ignore=tests/integration

all: test bench

clean:
	rm -rf .pytest_cache .hypothesis build *.egg-info src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +

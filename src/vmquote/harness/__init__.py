"""Multi-party simulation harness: world, adversary, scenarios, checkers."""

from .events import (
    KIND_ADVERSARY,
    KIND_SEND,
    KIND_TRANSITION,
    KIND_VERDICT,
    Event,
    Trace,
    term_from_hex,
    term_hex,
)
from .fuzz import (
    DEFAULT_MASK,
    CampaignResult,
    CompromiseMask,
    fuzz_adversary,
    fuzz_campaign,
    parse_compromise_flags,
)
from .knowledge import AdversaryKnowledge, Compromises
from .properties import (
    PROPERTY_IDS,
    PropertyResult,
    UnknownProperty,
    check_all,
    check_property,
    rebuild_knowledge,
)
from .scenarios import (
    COMPROMISE_ATTACKS,
    NEGATIVE_SCENARIOS,
    SCENARIOS,
    UnknownScenario,
    check_postcondition,
    run_scenario,
    run_scenario_world,
)
from .world import CapabilityDenied, ForbiddenGuest, ForbiddenMeasurement, Pipeline, World

__all__ = [
    "KIND_ADVERSARY",
    "KIND_SEND",
    "KIND_TRANSITION",
    "KIND_VERDICT",
    "Event",
    "Trace",
    "term_from_hex",
    "term_hex",
    "DEFAULT_MASK",
    "CampaignResult",
    "CompromiseMask",
    "fuzz_adversary",
    "fuzz_campaign",
    "parse_compromise_flags",
    "AdversaryKnowledge",
    "Compromises",
    "PROPERTY_IDS",
    "PropertyResult",
    "UnknownProperty",
    "check_all",
    "check_property",
    "rebuild_knowledge",
    "COMPROMISE_ATTACKS",
    "NEGATIVE_SCENARIOS",
    "SCENARIOS",
    "UnknownScenario",
    "check_postcondition",
    "run_scenario",
    "run_scenario_world",
    "CapabilityDenied",
    "ForbiddenGuest",
    "ForbiddenMeasurement",
    "Pipeline",
    "World",
]

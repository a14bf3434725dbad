"""Combinatorics of Arthur packet translation for real classical groups."""

from .weyl import (
    GroupType,
    Weight,
    weight,
    simple_roots,
    positive_roots,
    dominant_rep,
    pairing,
    norm_sq,
    half_sum_positive_roots,
)
from .params import (
    ArthurParameter,
    Block,
    ClassicalGroup,
    ComponentGroup,
    EndoscopicSplit,
    InfChar,
    ParameterError,
    ParityError,
    DimensionError,
    DominationError,
    arthur_parameter,
    block,
    canonical_offsets,
    component_group,
    corpus,
    dimension,
    dominate,
    endoscopic_split,
    enumerate_parameters,
    good_parity,
    inf_char,
    quotient_map,
    very_regular_threshold,
)
from .torus import (
    TranslationDatum,
    transfer_infchar,
    translation_weight,
    uniqueness_check,
)
from .twisted import (
    kostant_theta_invariance,
    norm_map,
    verify_transfer_identities,
)
from .aq import (
    AqDatum,
    LeviDatum,
    PacketData,
    aq_datum,
    enumerate_levis,
    filtration_vanishing,
    lambda_tilde,
    packet_data,
    range_check,
    translate_packet,
)

__version__ = "0.1.0"

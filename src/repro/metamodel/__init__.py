"""A small UML metamodel, profiles and diagram renderers.

The paper's artefacts are *modelling-language* artefacts: Table 1 defines
eight new stereotypes, Figure 1 a class diagram (State + Strategy
patterns), Figures 2 and 3 the abstract syntax and structure of the
extension.  This package makes those artefacts machine-checked:

* :mod:`repro.metamodel.elements` — classes, attributes, operations,
  associations, generalisations, packages;
* :mod:`repro.metamodel.stereotypes` — stereotype definitions, the UML-RT
  profile, the paper's extension profile and the Table-1 mapping with a
  registry tying every stereotype to its implementation class in this
  library;
* :mod:`repro.metamodel.profile` — applying stereotypes to elements with
  base-metaclass checking;
* :mod:`repro.metamodel.xmi` — XMI-flavoured XML serialisation with
  round-trip support;
* :mod:`repro.metamodel.classdiagram` — ASCII class-diagram rendering and
  the live Figure-1 package;
* :mod:`repro.metamodel.structure` — ASCII structure diagrams of capsule/
  streamer instances and the Figure-2/Figure-3 example models.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.metamodel.elements": (
        "Association", "Attribute", "Classifier", "Generalization",
        "Multiplicity", "Operation", "Package",
    ),
    "repro.metamodel.stereotypes": (
        "EXTENSION_PROFILE", "TABLE1", "UMLRT_PROFILE", "StereotypeDef",
        "implementation_of", "table1_rows", "render_table1",
    ),
    "repro.metamodel.profile": ("Profile", "ProfileError"),
    "repro.metamodel.export": ("model_stereotype_census", "model_to_package"),
    "repro.metamodel.xmi": ("from_xmi", "to_xmi"),
    "repro.metamodel.classdiagram": (
        "figure1_package", "render_class_diagram",
    ),
    "repro.metamodel.structure": (
        "figure2_streamer", "figure3_capsule_model",
        "render_capsule_structure", "render_streamer_structure",
    ),
})

if TYPE_CHECKING:
    from repro.metamodel.elements import (
        Association,
        Attribute,
        Classifier,
        Generalization,
        Multiplicity,
        Operation,
        Package,
    )
    from repro.metamodel.stereotypes import (
        EXTENSION_PROFILE,
        TABLE1,
        UMLRT_PROFILE,
        StereotypeDef,
        implementation_of,
        table1_rows,
        render_table1,
    )
    from repro.metamodel.profile import Profile, ProfileError
    from repro.metamodel.export import (
        model_stereotype_census, model_to_package,
    )
    from repro.metamodel.xmi import from_xmi, to_xmi
    from repro.metamodel.classdiagram import (
        figure1_package, render_class_diagram,
    )
    from repro.metamodel.structure import (
        figure2_streamer,
        figure3_capsule_model,
        render_capsule_structure,
        render_streamer_structure,
    )

"""Split-complex geometry, radar charts, and proper time on the
Minkowski plane.

Each public name is declared once, in its module's ``__all__``; the
package namespace is the concatenation of those lists.
"""

from . import algebra, causal, errors, fieldcheck, mwmap, observers
from . import propertime, quadrature, scenario
from .algebra import *  # noqa: F403
from .causal import *  # noqa: F403
from .errors import *  # noqa: F403
from .fieldcheck import *  # noqa: F403
from .mwmap import *  # noqa: F403
from .observers import *  # noqa: F403
from .propertime import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .scenario import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (algebra, causal, errors, fieldcheck, mwmap, observers, propertime,
            quadrature, scenario)
__all__ = [name for module in _MODULES for name in module.__all__]

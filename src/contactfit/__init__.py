"""Region-level self-contact signatures and contact-consistent body fitting."""

from .body import (BodyModel, Camera, FacetGeometry, PoseParams,
                   facet_geometry, joint_positions, joint_transforms,
                   pose_mesh, pose_mesh_with_jacobian, project)
from .contact import (ContactSegmentation, ContactSignature, ContactState,
                      ImageSupport, coarsen_signature, contact_stats,
                      iou_segmentation, iou_signature,
                      segmentation_from_signature)
from .contact_geometry import (MatchSet, PairMatches, contact_distance_error,
                               loss_distance, loss_distance_frozen,
                               loss_normal, phi_distance, phi_distance_regions)
from .errors import (CodecError, ContactFitError, GeometryError,
                     GranularityError, OptimizationError, ParameterError,
                     ProjectionError)
from .evaluation import (EvalRecord, aggregate, mpjpe, translation_error,
                         vertex_error)
from .inference_filter import (FilterConfig, RawPrediction, filter_signature,
                               sweep_thresholds, threshold_segmentation,
                               threshold_signature)
from .reconstruct import (CollisionProxySet, LossBreakdown, ObjectiveWeights,
                          OptimizerSettings, ReconstructionProblem,
                          fit_collision_proxies, loss_collision,
                          loss_projection, loss_regularizer, optimize)
from .regions import (CoarsenMap, RegionMap, coarsen_region_map,
                      region_facets)
from .synthetic import (SCENARIO_NAMES, ScenarioBundle, SyntheticBody,
                        build_synthetic_body, default_camera,
                        generate_scenario)
from .train_losses import (LandmarkSet, LossWeights, loss_landmark,
                           loss_segmentation_ce, loss_separation,
                           signature_similarity_loss, softargmax,
                           total_train_loss)

__version__ = "0.1.0"

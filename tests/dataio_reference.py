"""``write_keypoints`` one ``Keypoint`` object at a time: the reference that
the block writer in ``avitrack.dataio`` is tested against byte for byte.

It sorts the objects by (camera, frame, detection, y, x), which keeps
tied rows in input order, and hands every cell to ``csv.writer`` as a
Python value, so each float is written as its ``repr``.
"""

import csv

from avitrack.dataio import keypoints_header
from avitrack.matching import Keypoint


def write_keypoints_reference(path, keypoints: list[Keypoint], descriptor_length: int) -> None:
    ordered = sorted(
        keypoints,
        key=lambda k: (k.camera_id, k.frame, k.detection_index,
                       k.position[1], k.position[0]),
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keypoints_header(descriptor_length))
        writer.writerows(
            [kp.camera_id, kp.frame, kp.detection_index,
             *kp.position.tolist(), *kp.descriptor.tolist()]
            for kp in ordered
        )

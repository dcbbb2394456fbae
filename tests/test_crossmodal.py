import numpy as np
import numpy.testing as npt
import pytest

from foleygen.crossmodal import (
    ProjectionParams,
    ResBlock3DParams,
    VideoEmbedderParams,
    audio_to_video,
    embed_video_context,
    res_block_3d,
    video_to_audio,
)
from foleygen.engine import Tensor, backward, grad_check
from foleygen.errors import ShapeError
from foleygen.models import _named_tensors


def zero_bias(p: ProjectionParams):
    p.b.data[:] = 0.0
    return p


class TestResBlock:
    def test_zero_weights_identity_skip(self):
        rng = np.random.default_rng(0)
        p = ResBlock3DParams.create(rng, 2)
        p.conv1.data[:] = 0.0
        p.conv2.data[:] = 0.0
        x = np.abs(rng.uniform(0, 1, (2, 2, 3, 3)))
        y = res_block_3d(Tensor(x), p)
        npt.assert_array_equal(y.data, x)

    def test_zero_input(self):
        rng = np.random.default_rng(1)
        p = ResBlock3DParams.create(rng, 2)
        y = res_block_3d(Tensor(np.zeros((2, 2, 3, 3))), p)
        npt.assert_array_equal(y.data, np.zeros((2, 2, 3, 3)))

    def test_single_voxel_hand_composition(self):
        # with a 1x1x1 input the 3x3x3 kernels only touch their centers
        rng = np.random.default_rng(2)
        p = ResBlock3DParams.create(rng, 1)
        p.conv1.data[:] = 0.0
        p.conv2.data[:] = 0.0
        p.conv1.data[0, 0, 1, 1, 1] = 2.0
        p.conv2.data[0, 0, 1, 1, 1] = 3.0
        x = np.full((1, 1, 1, 1), 0.5)
        y = res_block_3d(Tensor(x), p)
        # relu(3*relu(2*0.5) + 0.5) = 3.5
        npt.assert_allclose(y.data, 3.5)

    def test_shape_preserved(self):
        rng = np.random.default_rng(3)
        p = ResBlock3DParams.create(rng, 3)
        x = rng.uniform(-1, 1, (3, 2, 4, 5))
        assert res_block_3d(Tensor(x), p).shape == (3, 2, 4, 5)

    def test_gradients(self):
        rng = np.random.default_rng(4)
        p = ResBlock3DParams.create(rng, 2)
        x = Tensor(rng.uniform(0.1, 1, (2, 1, 2, 2)), requires_grad=True)
        tensors = list(_named_tensors(p).values())
        err = grad_check(
            lambda x, *ts: (res_block_3d(x, p) ** 2).sum(), [x, *tensors])
        assert err < 1e-4


class TestVideoToAudio:
    def test_zero_frames_zero_embedding(self):
        rng = np.random.default_rng(5)
        p = zero_bias(ProjectionParams.create(rng, 4, 6, 3, 2))
        y = video_to_audio(Tensor(np.zeros((3, 1, 2, 2))), p)
        npt.assert_array_equal(y.data, np.zeros((2, 6)))

    def test_default_shape_contract(self):
        rng = np.random.default_rng(6)
        p = ProjectionParams.create(rng, 36 * 64, 294, 3, 2)
        y = video_to_audio(Tensor(rng.uniform(0, 1, (3, 1, 36, 64))), p)
        assert y.shape == (2, 294)

    def test_scalar_passthrough(self):
        p = ProjectionParams(w=Tensor([[1.0]]), b=Tensor([0.0]),
                             mix=Tensor([[2.0]]))
        y = video_to_audio(Tensor([[[[0.7]]]]), p)
        npt.assert_allclose(y.data, [[1.4]])

    def test_time_pooling(self):
        rng = np.random.default_rng(7)
        p = ProjectionParams.create(rng, 4, 5, 3, 2)
        frames = rng.uniform(0, 1, (3, 1, 2, 2))
        stacked = np.repeat(frames, 4, axis=1)
        y1 = video_to_audio(Tensor(frames), p).data
        y2 = video_to_audio(Tensor(stacked), p).data
        npt.assert_allclose(y1, y2, atol=1e-12)

    def test_spatial_mismatch(self):
        rng = np.random.default_rng(8)
        p = ProjectionParams.create(rng, 9, 5, 3, 2)
        with pytest.raises(ShapeError):
            video_to_audio(Tensor(np.zeros((3, 1, 2, 2))), p)

    def test_time_axis_required(self):
        p = ProjectionParams.create(np.random.default_rng(8), 4, 5, 3, 2)
        with pytest.raises(ShapeError, match="4-D or 5-D"):
            video_to_audio(Tensor(np.zeros((3, 2, 2))), p)


class TestAudioToVideo:
    def test_zero_audio(self):
        rng = np.random.default_rng(9)
        p = zero_bias(ProjectionParams.create(rng, 6, 4, 2, 3))
        y = audio_to_video(Tensor(np.zeros((2, 6))), p, 2, 2)
        npt.assert_array_equal(y.data, np.zeros((3, 2, 2)))

    def test_shape_contract(self):
        rng = np.random.default_rng(10)
        p = ProjectionParams.create(rng, 294, 36 * 64, 2, 3)
        y = audio_to_video(Tensor(rng.uniform(-1, 1, (2, 294))), p, 36, 64)
        assert y.shape == (3, 36, 64)

    def test_composition_is_linear(self):
        rng = np.random.default_rng(11)
        a2v = zero_bias(ProjectionParams.create(rng, 6, 4, 2, 3))
        v2a = zero_bias(ProjectionParams.create(rng, 4, 6, 3, 2))

        def f(arr):
            vid = audio_to_video(Tensor(arr), a2v, 2, 2)
            return video_to_audio(vid.reshape(3, 1, 2, 2), v2a).data

        a = rng.uniform(-1, 1, (2, 6))
        b = rng.uniform(-1, 1, (2, 6))
        npt.assert_allclose(f(a + b), f(a) + f(b), atol=1e-9)

    def test_length_mismatch(self):
        rng = np.random.default_rng(12)
        p = ProjectionParams.create(rng, 6, 4, 2, 3)
        with pytest.raises(ShapeError):
            audio_to_video(Tensor(np.zeros((2, 5))), p, 2, 2)


class TestEmbedVideoContext:
    def make_params(self, rng, h=2, w=2, n_aud=6, channels=2, blocks=1):
        return VideoEmbedderParams.create(rng, h, w, n_aud,
                                          channels=channels, n_blocks=blocks)

    def test_zero_context_zero_embedding(self):
        rng = np.random.default_rng(13)
        p = self.make_params(rng)
        p.proj.b.data[:] = 0.0
        y = embed_video_context(Tensor(np.zeros((3, 2, 2, 2))), p)
        npt.assert_array_equal(y.data, np.zeros((2, 6)))

    def test_repeated_frames_match_single(self):
        rng = np.random.default_rng(14)
        p = self.make_params(rng)
        frame = rng.uniform(0, 1, (3, 1, 2, 2))
        repeated = np.repeat(frame, 4, axis=1)
        y1 = embed_video_context(Tensor(frame), p).data
        y4 = embed_video_context(Tensor(repeated), p).data
        npt.assert_allclose(y1, y4, atol=1e-12)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(15)
        p = self.make_params(rng, h=1, w=1, n_aud=2, channels=1, blocks=1)
        x = rng.uniform(0, 1, (3, 1, 1, 1))
        # oracle: 1x1 lift, res block on the single voxel, projection
        lifted = (p.entry.data @ x.reshape(3, 1)).reshape(1, 1, 1, 1)
        c1 = p.blocks[0].conv1.data[0, 0, 1, 1, 1]
        c2 = p.blocks[0].conv2.data[0, 0, 1, 1, 1]
        voxel = lifted[0, 0, 0, 0]
        res = max(c2 * max(c1 * voxel, 0.0) + voxel, 0.0)
        seq = res * p.proj.w.data[0] + p.proj.b.data        # (2,)
        expected = p.proj.mix.data @ seq.reshape(1, 2)
        y = embed_video_context(Tensor(x), p).data
        npt.assert_allclose(y, expected, atol=1e-12)

    def test_parameter_gradients(self):
        rng = np.random.default_rng(16)
        p = self.make_params(rng)
        tensors = list(_named_tensors(p).values())
        x = Tensor(rng.uniform(0.1, 1, (3, 2, 2, 2)), requires_grad=True)
        err = grad_check(
            lambda x, *ts: (embed_video_context(x, p) ** 2).sum(),
            [x, *tensors])
        assert err < 1e-4

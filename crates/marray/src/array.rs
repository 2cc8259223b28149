use crate::chunkstore::{ChunkBuf, ChunkView};
use crate::element::Element;
use crate::error::{ArrayError, Result};
use crate::shape::Shape;

/// A dense, row-major N-dimensional array over a shared chunk buffer.
///
/// This is the in-memory payload type flowing through every engine in the
/// workspace: NIfTI volumes, FITS planes, masks, tensors, and blobs are all
/// `NdArray<f32>` / `NdArray<f64>` / `NdArray<u8>` under the hood.
///
/// Storage is a reference-counted [`ChunkBuf`]: `clone()` shares the bytes
/// (a refcount bump under [`crate::CopyMode::Shared`], the default), and
/// mutation is copy-on-write — mutating accessors deep-copy only when the
/// buffer is shared, and every deep copy is recorded by
/// [`crate::CopyCounter`]. Use [`NdArray::materialize`] when a copy is
/// architecturally required regardless of sharing.
#[derive(Debug, Clone, PartialEq)]
pub struct NdArray<T: Element> {
    shape: Shape,
    data: ChunkBuf<T>,
}

impl<T: Element> NdArray<T> {
    /// Internal: wrap a freshly built buffer (no copy, no counting).
    #[inline]
    fn from_parts(shape: Shape, data: Vec<T>) -> Self {
        NdArray {
            shape,
            data: ChunkBuf::from_vec(data),
        }
    }

    /// Internal: the raw element slice.
    #[inline]
    fn d(&self) -> &[T] {
        self.data.as_slice()
    }

    /// Array of `T::ZERO` with the given dims.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Self::from_parts(shape, vec![T::ZERO; len])
    }

    /// Array filled with `value`.
    pub fn full(dims: &[usize], value: T) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Self::from_parts(shape, vec![value; len])
    }

    /// Array built by evaluating `f` at every multi-index (row-major order).
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> T) -> Self {
        let shape = Shape::new(dims);
        let mut data = Vec::with_capacity(shape.len());
        for ix in shape.indices() {
            data.push(f(&ix));
        }
        Self::from_parts(shape, data)
    }

    /// Wrap an existing buffer. Fails if the length does not match the shape.
    pub fn from_vec(dims: &[usize], data: Vec<T>) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.len() != data.len() {
            return Err(ArrayError::BadBufferLen {
                expected: shape.len(),
                got: data.len(),
            });
        }
        Ok(Self::from_parts(shape, data))
    }

    /// The array's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Axis extents (shorthand for `shape().dims()`).
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the array holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major element buffer.
    #[inline]
    pub fn data(&self) -> &[T] {
        self.data.as_slice()
    }

    /// Mutable raw row-major element buffer.
    ///
    /// Copy-on-write: free when this array is the sole owner of its buffer,
    /// otherwise a deep copy recorded under reason `"cow"`.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [T] {
        self.data.make_mut("cow")
    }

    /// Consume the array, returning its buffer.
    ///
    /// Free when this array is the sole owner of its buffer, otherwise a
    /// deep copy recorded under reason `"unshare"`.
    pub fn into_vec(self) -> Vec<T> {
        self.data.into_vec("unshare")
    }

    /// The shared buffer behind this array.
    #[inline]
    pub fn buf(&self) -> &ChunkBuf<T> {
        &self.data
    }

    /// True when `self` and `other` share the same underlying allocation —
    /// the property the zero-copy data plane preserves across engine
    /// boundaries.
    pub fn shares_buffer(&self, other: &NdArray<T>) -> bool {
        self.data.ptr_eq(&other.data)
    }

    /// An explicit, always-counted deep copy of this array under `reason`.
    ///
    /// The sanctioned escape hatch for engine boundaries whose architectural
    /// contract requires a private copy (e.g. the SciDB analog's chunked
    /// rewrite); accidental copies should share instead.
    pub fn materialize(&self, reason: &str) -> NdArray<T> {
        NdArray {
            shape: self.shape.clone(),
            data: self.data.deep_copy(reason),
        }
    }

    /// Re-encode this array's buffer into the smallest compressed
    /// representation (see [`crate::codec`]), when a codec actually
    /// shrinks it and the global [`crate::CompressMode`] allows it;
    /// otherwise a cheap handle clone. Reads through [`NdArray::data`]
    /// keep working transparently (lazy shared decode); mutation
    /// materializes a private dense buffer (COW).
    pub fn compressed(&self) -> NdArray<T> {
        NdArray {
            shape: self.shape.clone(),
            data: self.data.compressed(),
        }
    }

    /// Internal: a handle clone (refcount bump) regardless of the global
    /// [`crate::CopyMode`] — for representation-level reads that must
    /// never be charged as payload copies. The clone starts unpinned, so
    /// reading a governed array through it leaves the stored handle
    /// spillable (the pin dies with the temporary).
    pub(crate) fn handle_clone(&self) -> NdArray<T> {
        NdArray {
            shape: self.shape.clone(),
            data: self.data.handle_clone(),
        }
    }

    /// Place this array's buffer under [`crate::MemoryGovernor`]
    /// management (see [`ChunkBuf::govern`]): the governor may spill the
    /// bytes to disk under budget pressure, and the next read reloads
    /// them bit-exactly. No copy; the returned array starts unpinned.
    pub fn govern(&self) -> NdArray<T> {
        NdArray {
            shape: self.shape.clone(),
            data: self.data.govern(),
        }
    }

    /// Where this array's buffer currently lives (always
    /// [`crate::Residency::Resident`] for non-governed arrays).
    pub fn residency(&self) -> crate::Residency {
        self.data.residency()
    }

    /// Drop this handle's pin on a governed buffer, making it spillable
    /// again without dropping the handle (see [`ChunkBuf::release`]);
    /// the next [`NdArray::data`] re-pins, reloading if the buffer
    /// spilled in the meantime. No-op for non-governed arrays. Streaming
    /// consumers call this between chunks so their working set, not
    /// their whole traversal history, is what counts against the budget.
    pub fn release(&mut self) {
        self.data.release();
    }

    /// The stored representation of this array's buffer.
    pub fn repr(&self) -> crate::ChunkRepr {
        self.data.repr()
    }

    /// The compressed form, when the buffer holds one — run-consuming
    /// kernels branch on this to do run-level arithmetic instead of
    /// decoding to per-pixel data.
    pub fn encoded(&self) -> Option<&crate::Encoded<T>> {
        self.data.encoded()
    }

    /// Bytes the stored representation occupies: equals [`NdArray::nbytes`]
    /// for dense arrays, the encoded footprint for compressed ones — the
    /// volume that actually crosses an engine boundary carrying this array.
    pub fn stored_nbytes(&self) -> usize {
        self.data.stored_nbytes()
    }

    /// A zero-copy view of `len` contiguous row-major elements starting at
    /// flat offset `start` — the slab handle partitioners hand to workers
    /// instead of `data()[lo..hi].to_vec()`.
    pub fn slice_view(&self, start: usize, len: usize) -> ChunkView<T> {
        self.data.view(start, len)
    }

    /// Number of elements in one *slab*: the contiguous row-major run of
    /// all elements sharing one index along axis 0. This is the natural
    /// partition unit for data-parallel kernels (`parexec`): slab
    /// boundaries never split an inner row, so per-slab work touches a
    /// contiguous buffer range.
    ///
    /// For a rank-0 or rank-1 array the slab is a single element.
    #[inline]
    pub fn slab_len(&self) -> usize {
        self.shape.dims().iter().skip(1).product::<usize>().max(1)
    }

    /// Number of slabs along axis 0 (`dims()[0]`, or the element count for
    /// rank ≤ 1).
    #[inline]
    pub fn num_slabs(&self) -> usize {
        if self.shape.rank() <= 1 {
            self.data.len()
        } else {
            self.shape.dim(0)
        }
    }

    /// Borrow slab `i` (the rank-(N-1) sub-array at axis-0 index `i`) as a
    /// contiguous slice.
    #[inline]
    pub fn slab(&self, i: usize) -> &[T] {
        let len = self.slab_len();
        &self.d()[i * len..(i + 1) * len]
    }

    /// Iterate the slabs along axis 0 as contiguous slices.
    pub fn slabs(&self) -> std::slice::Chunks<'_, T> {
        self.d().chunks(self.slab_len())
    }

    /// Iterate the slabs along axis 0 as disjoint mutable slices — the
    /// handles a data-parallel runtime distributes across workers.
    pub fn slabs_mut(&mut self) -> std::slice::ChunksMut<'_, T> {
        let len = self.slab_len();
        self.data.make_mut("cow").chunks_mut(len)
    }

    /// Size of the array payload in bytes when serialized densely.
    #[inline]
    pub fn nbytes(&self) -> usize {
        self.data.len() * T::BYTES
    }

    /// Checked element access.
    pub fn get(&self, index: &[usize]) -> Result<T> {
        Ok(self.d()[self.shape.offset_checked(index)?])
    }

    /// Checked element write.
    pub fn set(&mut self, index: &[usize], value: T) -> Result<()> {
        let off = self.shape.offset_checked(index)?;
        self.data.make_mut("cow")[off] = value;
        Ok(())
    }

    /// Reshape to `dims` without moving data. Element count must match.
    pub fn reshape(self, dims: &[usize]) -> Result<Self> {
        let new = Shape::new(dims);
        if new.len() != self.shape.len() {
            return Err(ArrayError::BadReshape {
                from: self.shape.dims().to_vec(),
                to: dims.to_vec(),
            });
        }
        Ok(NdArray {
            shape: new,
            data: self.data,
        })
    }

    /// Flatten to rank 1.
    pub fn flatten(self) -> Self {
        let len = self.data.len();
        NdArray {
            shape: Shape::new(&[len]),
            data: self.data,
        }
    }

    /// Extract the rank-(N-1) sub-array at position `index` along `axis`.
    ///
    /// E.g. `slice_axis(3, k)` on a 4-D dMRI dataset extracts 3-D volume `k`.
    pub fn slice_axis(&self, axis: usize, index: usize) -> Result<Self> {
        if axis >= self.shape.rank() {
            return Err(ArrayError::AxisOutOfRange {
                axis,
                rank: self.shape.rank(),
            });
        }
        if index >= self.shape.dim(axis) {
            return Err(ArrayError::IndexOutOfBounds {
                index: vec![index],
                dims: vec![self.shape.dim(axis)],
            });
        }
        let out_shape = self.shape.without_axis(axis)?;
        let data = self.take_runs(axis, &[index]);
        Ok(Self::from_parts(out_shape, data))
    }

    /// Select a subset of positions along `axis` (NumPy `take`).
    pub fn take_axis(&self, axis: usize, positions: &[usize]) -> Result<Self> {
        if axis >= self.shape.rank() {
            return Err(ArrayError::AxisOutOfRange {
                axis,
                rank: self.shape.rank(),
            });
        }
        for &p in positions {
            if p >= self.shape.dim(axis) {
                return Err(ArrayError::IndexOutOfBounds {
                    index: vec![p],
                    dims: vec![self.shape.dim(axis)],
                });
            }
        }
        let out_shape = self.shape.with_axis(axis, positions.len())?;
        let data = self.take_runs(axis, positions);
        Ok(Self::from_parts(out_shape, data))
    }

    /// Internal: the elements at `positions` along `axis`, in row-major
    /// order of the result. Each position contributes one contiguous run
    /// of everything inside `axis` per outer block.
    fn take_runs(&self, axis: usize, positions: &[usize]) -> Vec<T> {
        let (outer, n, inner) = self.shape.split_at_axis(axis);
        let len = outer * positions.len() * inner;
        let mut data = Vec::with_capacity(len);
        if len > 0 {
            let src = self.d();
            for block in 0..outer {
                for &p in positions {
                    let start = (block * n + p) * inner;
                    data.extend_from_slice(&src[start..start + inner]);
                }
            }
        }
        data
    }

    /// Extract the hyper-rectangle `[starts[i], starts[i] + dims[i])` on each
    /// axis (SciDB `between` / `subarray`).
    pub fn subarray(&self, starts: &[usize], dims: &[usize]) -> Result<Self> {
        if starts.len() != self.shape.rank() || dims.len() != self.shape.rank() {
            return Err(ArrayError::ShapeMismatch {
                expected: self.shape.dims().to_vec(),
                got: dims.to_vec(),
            });
        }
        for (a, (&s0, &d)) in starts.iter().zip(dims).enumerate() {
            if s0 + d > self.shape.dim(a) {
                return Err(ArrayError::IndexOutOfBounds {
                    index: vec![s0 + d],
                    dims: vec![self.shape.dim(a)],
                });
            }
        }
        let out_shape = Shape::new(dims);
        let strides = self.shape.strides();
        let data = self.gather_box(dims, &strides, dot(starts, &strides));
        Ok(Self::from_parts(out_shape, data))
    }

    /// Internal: the box `dims` whose origin sits at flat offset `base`,
    /// with per-axis source `strides`, gathered into a row-major vector.
    /// Reads the buffer only when the box holds elements.
    fn gather_box(&self, dims: &[usize], strides: &[usize], base: usize) -> Vec<T> {
        let len = dims.iter().product();
        let mut data = Vec::with_capacity(len);
        if len > 0 {
            let src = self.d();
            let run = dims.last().copied().unwrap_or(1);
            let step = strides.last().copied().unwrap_or(1);
            for_each_row(dims, strides, base, &mut |start| {
                if step == 1 {
                    data.extend_from_slice(&src[start..start + run]);
                } else {
                    data.extend((0..run).map(|i| src[start + i * step]));
                }
            });
        }
        data
    }

    /// Write `patch` into this array at origin `starts` (inverse of
    /// [`NdArray::subarray`]).
    pub fn write_subarray(&mut self, starts: &[usize], patch: &NdArray<T>) -> Result<()> {
        if starts.len() != self.shape.rank() || patch.shape.rank() != self.shape.rank() {
            return Err(ArrayError::ShapeMismatch {
                expected: self.shape.dims().to_vec(),
                got: patch.shape.dims().to_vec(),
            });
        }
        for (a, &s0) in starts.iter().enumerate() {
            if s0 + patch.shape.dim(a) > self.shape.dim(a) {
                return Err(ArrayError::IndexOutOfBounds {
                    index: vec![s0 + patch.shape.dim(a)],
                    dims: vec![self.shape.dim(a)],
                });
            }
        }
        let strides = self.shape.strides();
        let dst = self.data.make_mut("cow");
        if !patch.is_empty() {
            let src = patch.d();
            let run = patch.dims().last().copied().unwrap_or(1);
            let base = dot(starts, &strides);
            let mut read = 0;
            for_each_row(patch.dims(), &strides, base, &mut |start| {
                dst[start..start + run].copy_from_slice(&src[read..read + run]);
                read += run;
            });
        }
        Ok(())
    }

    /// Concatenate arrays along `axis`. All other extents must agree.
    // scilint: allow(F001, shape invariant upheld by construction; a violation is a kernel bug, not a data error)
    pub fn concat(parts: &[&NdArray<T>], axis: usize) -> Result<Self> {
        let first = parts.first().expect("concat of zero arrays");
        let rank = first.shape.rank();
        if axis >= rank {
            return Err(ArrayError::AxisOutOfRange { axis, rank });
        }
        let mut total = 0;
        for p in parts {
            for a in 0..rank {
                if a != axis && p.shape.dim(a) != first.shape.dim(a) {
                    return Err(ArrayError::ShapeMismatch {
                        expected: first.shape.dims().to_vec(),
                        got: p.shape.dims().to_vec(),
                    });
                }
            }
            total += p.shape.dim(axis);
        }
        let out_shape = first.shape.with_axis(axis, total)?;
        let mut out = NdArray::zeros(out_shape.dims());
        let mut cursor = 0;
        let mut starts = vec![0usize; rank];
        for p in parts {
            starts[axis] = cursor;
            out.write_subarray(&starts, p)?;
            cursor += p.shape.dim(axis);
        }
        Ok(out)
    }

    /// Permute the axes: `perm[i]` names the source axis that becomes
    /// output axis `i` (NumPy `transpose`). Produces a contiguous copy.
    pub fn permute_axes(&self, perm: &[usize]) -> Result<Self> {
        let rank = self.shape.rank();
        let valid = perm.len() == rank
            && perm
                .iter()
                .enumerate()
                .all(|(i, &a)| a < rank && !perm[..i].contains(&a));
        if !valid {
            return Err(ArrayError::ShapeMismatch {
                expected: (0..rank).collect(),
                got: perm.to_vec(),
            });
        }
        let out_shape = self.shape.permuted(perm);
        // Source stride of each output axis.
        let dims = self.shape.dims();
        let strides: Vec<usize> = perm
            .iter()
            .map(|&a| dims[a + 1..].iter().product())
            .collect();
        let data = self.gather_box(out_shape.dims(), &strides, 0);
        Ok(Self::from_parts(out_shape, data))
    }

    /// Apply `f` to every element, producing a new array.
    pub fn map<U: Element>(&self, mut f: impl FnMut(T) -> U) -> NdArray<U> {
        NdArray {
            shape: self.shape.clone(),
            data: ChunkBuf::from_vec(self.d().iter().map(|&v| f(v)).collect()),
        }
    }

    /// Apply `f` in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(T) -> T) {
        for v in self.data.make_mut("cow").iter_mut() {
            *v = f(*v);
        }
    }

    /// Combine two same-shaped arrays element-wise.
    pub fn zip_with<U: Element, V: Element>(
        &self,
        other: &NdArray<U>,
        mut f: impl FnMut(T, U) -> V,
    ) -> Result<NdArray<V>> {
        if self.shape.dims() != other.shape.dims() {
            return Err(ArrayError::ShapeMismatch {
                expected: self.shape.dims().to_vec(),
                got: other.shape.dims().to_vec(),
            });
        }
        Ok(NdArray {
            shape: self.shape.clone(),
            data: ChunkBuf::from_vec(
                self.d()
                    .iter()
                    .zip(other.d())
                    .map(|(&a, &b)| f(a, b))
                    .collect(),
            ),
        })
    }

    /// Convert every element to another element type via `f64`.
    pub fn cast<U: Element>(&self) -> NdArray<U> {
        self.map(|v| U::from_f64(v.to_f64()))
    }
}

impl<T: Element> std::ops::Index<&[usize]> for NdArray<T> {
    type Output = T;
    #[inline]
    fn index(&self, index: &[usize]) -> &T {
        &self.d()[self.shape.offset(index)]
    }
}

impl<T: Element> std::ops::IndexMut<&[usize]> for NdArray<T> {
    #[inline]
    fn index_mut(&mut self, index: &[usize]) -> &mut T {
        let off = self.shape.offset(index);
        &mut self.data.make_mut("cow")[off]
    }
}

/// Flat offset of the multi-index `ix` under per-axis `strides`.
fn dot(ix: &[usize], strides: &[usize]) -> usize {
    ix.iter().zip(strides).map(|(&i, &s)| i * s).sum()
}

/// The row walker behind every strided copy: calls `row(start)` for each
/// innermost row of the box `dims`, in row-major order, with the flat
/// offset of the row's first element in a buffer whose per-axis strides
/// are `strides` and where the box's origin sits at `base`. A rank-0 box
/// is one row of one element.
///
/// The loop nest over the outer axes is an odometer kept on the call
/// stack: each level adds its stride to the running offset, so the walk
/// allocates nothing and does no per-element index arithmetic. Callers
/// skip empty boxes.
fn for_each_row(dims: &[usize], strides: &[usize], base: usize, row: &mut impl FnMut(usize)) {
    match (dims, strides) {
        ([n, inner @ ..], [step, inner_strides @ ..]) if !inner.is_empty() => {
            for i in 0..*n {
                for_each_row(inner, inner_strides, base + i * step, row);
            }
        }
        _ => row(base),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(dims: &[usize]) -> NdArray<f64> {
        let mut n = 0.0;
        NdArray::from_fn(dims, |_| {
            n += 1.0;
            n - 1.0
        })
    }

    #[test]
    fn from_vec_validates_len() {
        assert!(NdArray::from_vec(&[2, 3], vec![0.0f32; 6]).is_ok());
        assert!(NdArray::from_vec(&[2, 3], vec![0.0f32; 5]).is_err());
    }

    #[test]
    fn slice_axis_last() {
        let a = iota(&[2, 3]);
        let row = a.slice_axis(0, 1).unwrap();
        assert_eq!(row.data(), &[3.0, 4.0, 5.0]);
        let col = a.slice_axis(1, 2).unwrap();
        assert_eq!(col.data(), &[2.0, 5.0]);
    }

    #[test]
    fn slice_axis_4d_volume() {
        // 4-D like dMRI data: x,y,z,volume — slicing axis 3 extracts a volume.
        let a = NdArray::from_fn(&[2, 2, 2, 3], |ix| {
            (ix[3] * 1000 + ix[0] * 4 + ix[1] * 2 + ix[2]) as f64
        });
        let vol = a.slice_axis(3, 2).unwrap();
        assert_eq!(vol.dims(), &[2, 2, 2]);
        for (off, &v) in vol.data().iter().enumerate() {
            assert_eq!(v, 2000.0 + off as f64);
        }
    }

    #[test]
    fn take_axis_selects_positions() {
        let a = iota(&[2, 4]);
        let t = a.take_axis(1, &[0, 3]).unwrap();
        assert_eq!(t.dims(), &[2, 2]);
        assert_eq!(t.data(), &[0.0, 3.0, 4.0, 7.0]);
    }

    #[test]
    fn subarray_and_write_roundtrip() {
        let a = iota(&[4, 5]);
        let sub = a.subarray(&[1, 2], &[2, 3]).unwrap();
        assert_eq!(sub.dims(), &[2, 3]);
        assert_eq!(sub[&[0, 0]], a[&[1, 2]]);
        assert_eq!(sub[&[1, 2]], a[&[2, 4]]);

        let mut b = NdArray::<f64>::zeros(&[4, 5]);
        b.write_subarray(&[1, 2], &sub).unwrap();
        assert_eq!(b[&[1, 2]], a[&[1, 2]]);
        assert_eq!(b[&[0, 0]], 0.0);
    }

    #[test]
    fn subarray_oob_is_error() {
        let a = iota(&[4, 5]);
        assert!(a.subarray(&[3, 0], &[2, 5]).is_err());
    }

    #[test]
    fn concat_axis0_and_axis1() {
        let a = iota(&[2, 2]);
        let b = a.map(|v| v + 10.0);
        let c0 = NdArray::concat(&[&a, &b], 0).unwrap();
        assert_eq!(c0.dims(), &[4, 2]);
        assert_eq!(c0[&[2, 0]], 10.0);
        let c1 = NdArray::concat(&[&a, &b], 1).unwrap();
        assert_eq!(c1.dims(), &[2, 4]);
        assert_eq!(c1[&[0, 2]], 10.0);
    }

    #[test]
    fn zip_with_shape_mismatch() {
        let a = iota(&[2, 2]);
        let b = iota(&[2, 3]);
        assert!(a.zip_with(&b, |x, y| x + y).is_err());
    }

    #[test]
    fn reshape_and_flatten() {
        let a = iota(&[2, 6]);
        let r = a.clone().reshape(&[3, 4]).unwrap();
        assert_eq!(r.dims(), &[3, 4]);
        assert_eq!(r.data(), a.data());
        assert!(a.clone().reshape(&[5, 2]).is_err());
        assert_eq!(a.flatten().dims(), &[12]);
    }

    #[test]
    fn cast_f32_u8() {
        let a = NdArray::from_vec(&[3], vec![0.2f32, 1.0, 250.7]).unwrap();
        let b: NdArray<u8> = a.cast();
        assert_eq!(b.data(), &[0u8, 1, 250]);
    }

    #[test]
    fn permute_axes_transposes() {
        let a = iota(&[2, 3]);
        let t = a.permute_axes(&[1, 0]).unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(a[&[r, c][..]], t[&[c, r][..]]);
            }
        }
        // Identity permutation is a no-op copy.
        assert_eq!(a.permute_axes(&[0, 1]).unwrap(), a);
    }

    #[test]
    fn permute_axes_moves_volume_axis_first() {
        // The TF workaround shape: (x,y,z,v) → (v,x,y,z).
        let a = NdArray::from_fn(&[2, 3, 4, 5], |ix| {
            (ix[0] * 1000 + ix[1] * 100 + ix[2] * 10 + ix[3]) as f64
        });
        let t = a.permute_axes(&[3, 0, 1, 2]).unwrap();
        assert_eq!(t.dims(), &[5, 2, 3, 4]);
        assert_eq!(t[&[4, 1, 2, 3][..]], a[&[1, 2, 3, 4][..]]);
    }

    #[test]
    fn permute_axes_rejects_bad_perms() {
        let a = iota(&[2, 3]);
        assert!(a.permute_axes(&[0]).is_err());
        assert!(a.permute_axes(&[0, 0]).is_err());
        assert!(a.permute_axes(&[0, 2]).is_err());
    }

    #[test]
    fn slab_views_partition_axis0() {
        let a = iota(&[3, 2, 2]);
        assert_eq!(a.slab_len(), 4);
        assert_eq!(a.num_slabs(), 3);
        assert_eq!(a.slab(1), &[4.0, 5.0, 6.0, 7.0]);
        let collected: Vec<&[f64]> = a.slabs().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[2], a.slab(2));
        // Mutable slabs are disjoint and cover the whole buffer.
        let mut b = iota(&[3, 2, 2]);
        for (i, slab) in b.slabs_mut().enumerate() {
            for v in slab.iter_mut() {
                *v = i as f64;
            }
        }
        assert_eq!(b.slab(0), &[0.0; 4]);
        assert_eq!(b.slab(2), &[2.0; 4]);
    }

    #[test]
    fn slab_views_rank1_are_single_elements() {
        let a = iota(&[5]);
        assert_eq!(a.slab_len(), 1);
        assert_eq!(a.num_slabs(), 5);
        assert_eq!(a.slab(3), &[3.0]);
    }

    #[test]
    fn nbytes_accounts_for_type() {
        assert_eq!(NdArray::<f32>::zeros(&[10]).nbytes(), 40);
        assert_eq!(NdArray::<f64>::zeros(&[10]).nbytes(), 80);
        assert_eq!(NdArray::<u8>::zeros(&[10]).nbytes(), 10);
    }
}

/// Bit-identity oracle for the strided data-movement ops.
///
/// Every op that walks innermost rows (`subarray`, `write_subarray`,
/// `slice_axis`, `take_axis`, `permute_axes`, `fold_axis` and the
/// reductions built on it) is compared bit for bit against a naive
/// per-index reference that lives only here: one multi-index at a time,
/// mapped to a flat offset with [`Shape::offset`].
#[cfg(test)]
mod strided_oracle {
    use crate::{
        with_copy_mode, ChunkRepr, CodecCounter, CopyCounter, CopyMode, Element, NdArray, Shape,
    };

    /// Exact bit patterns of every element (NaN payloads and `-0.0` included).
    fn bits<T: Element>(a: &NdArray<T>) -> Vec<u64> {
        a.data().iter().map(|v| v.to_ordered_u64()).collect()
    }

    fn assert_same<T: Element>(got: &NdArray<T>, want: &NdArray<T>, what: &str) {
        assert_eq!(got.dims(), want.dims(), "{what}: dims");
        assert_eq!(bits(got), bits(want), "{what}: bits");
    }

    /// A deterministic, non-repeating fill with a few awkward values.
    fn fill<T: Element>(dims: &[usize]) -> NdArray<T> {
        let mut n = 0u64;
        NdArray::from_fn(dims, |_| {
            n += 1;
            let v = match n % 11 {
                3 => -0.0,
                7 => 0.1 + n as f64,
                _ => ((n * 2_654_435_761) % 997) as f64 * 0.37 - 30.0,
            };
            T::from_f64(v)
        })
    }

    fn at<T: Element>(a: &NdArray<T>, ix: &[usize]) -> T {
        a.data()[a.shape().offset(ix)]
    }

    fn ref_subarray<T: Element>(a: &NdArray<T>, starts: &[usize], dims: &[usize]) -> NdArray<T> {
        let out = Shape::new(dims);
        let data = out
            .indices()
            .map(|ix| {
                let src: Vec<usize> = ix.iter().zip(starts).map(|(&i, &s)| i + s).collect();
                at(a, &src)
            })
            .collect();
        NdArray::from_vec(dims, data).unwrap()
    }

    fn ref_write<T: Element>(a: &NdArray<T>, starts: &[usize], patch: &NdArray<T>) -> NdArray<T> {
        let mut data = a.data().to_vec();
        for ix in patch.shape().indices() {
            let dst: Vec<usize> = ix.iter().zip(starts).map(|(&i, &s)| i + s).collect();
            data[a.shape().offset(&dst)] = at(patch, &ix);
        }
        NdArray::from_vec(a.dims(), data).unwrap()
    }

    fn ref_take<T: Element>(a: &NdArray<T>, axis: usize, positions: &[usize]) -> NdArray<T> {
        let out = a.shape().with_axis(axis, positions.len()).unwrap();
        let data = out
            .indices()
            .map(|mut ix| {
                ix[axis] = positions[ix[axis]];
                at(a, &ix)
            })
            .collect();
        NdArray::from_vec(out.dims(), data).unwrap()
    }

    fn ref_slice<T: Element>(a: &NdArray<T>, axis: usize, index: usize) -> NdArray<T> {
        let out = a.shape().without_axis(axis).unwrap();
        let data = out
            .indices()
            .map(|mut ix| {
                ix.insert(axis, index);
                at(a, &ix)
            })
            .collect();
        NdArray::from_vec(out.dims(), data).unwrap()
    }

    fn ref_permute<T: Element>(a: &NdArray<T>, perm: &[usize]) -> NdArray<T> {
        let dims: Vec<usize> = perm.iter().map(|&p| a.dims()[p]).collect();
        let data = Shape::new(&dims)
            .indices()
            .map(|ix| {
                let mut src = vec![0; ix.len()];
                for (i, &p) in perm.iter().enumerate() {
                    src[p] = ix[i];
                }
                at(a, &src)
            })
            .collect();
        NdArray::from_vec(&dims, data).unwrap()
    }

    /// Per output cell, folds the inputs in increasing `axis` order.
    fn ref_fold<T: Element>(
        a: &NdArray<T>,
        axis: usize,
        init: f64,
        fold: impl Fn(f64, f64) -> f64,
        finish: impl Fn(f64, usize) -> f64,
    ) -> NdArray<f64> {
        let out = a.shape().without_axis(axis).unwrap();
        let n = a.shape().dim(axis);
        let data = out
            .indices()
            .map(|ix| {
                let mut acc = init;
                for k in 0..n {
                    let mut src = ix.clone();
                    src.insert(axis, k);
                    acc = fold(acc, at(a, &src).to_f64());
                }
                finish(acc, n)
            })
            .collect();
        NdArray::from_vec(out.dims(), data).unwrap()
    }

    /// Ranks 0–4 plus zero-extent axes in the first, middle and last place.
    const SHAPES: &[&[usize]] = &[
        &[],
        &[5],
        &[3, 4],
        &[2, 3, 4],
        &[2, 3, 2, 3],
        &[0],
        &[3, 0, 2],
        &[0, 2],
        &[2, 3, 0],
    ];

    /// Every permutation of `0..rank`.
    fn permutations(rank: usize) -> Vec<Vec<usize>> {
        if rank == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for p in permutations(rank - 1) {
            for at in 0..=p.len() {
                let mut q = p.clone();
                q.insert(at, rank - 1);
                out.push(q);
            }
        }
        out
    }

    /// `(start, extent)` choices along one axis of extent `d`: the whole
    /// axis, an interior offset run, a run touching the far edge, a single
    /// element at the edge, and empty runs at both ends.
    fn spans(d: usize) -> Vec<(usize, usize)> {
        let mut s = vec![(0, d), (0, 0), (d, 0)];
        if d >= 2 {
            s.extend([(1, d - 1), (d - 1, 1), (0, d - 1)]);
        }
        if d >= 3 {
            s.push((1, d - 2));
        }
        s
    }

    /// Every box of `spans` per axis: `(starts, dims)`.
    fn boxes(dims: &[usize]) -> Vec<(Vec<usize>, Vec<usize>)> {
        let mut out = vec![(vec![], vec![])];
        for &d in dims {
            let mut next = Vec::new();
            for (starts, ext) in &out {
                for (s, e) in spans(d) {
                    let (mut s2, mut e2) = (starts.clone(), ext.clone());
                    s2.push(s);
                    e2.push(e);
                    next.push((s2, e2));
                }
            }
            out = next;
        }
        out
    }

    fn check_all_ops<T: Element>() {
        for &dims in SHAPES {
            let a = fill::<T>(dims);
            let rank = dims.len();
            for (starts, ext) in boxes(dims) {
                let what = format!("subarray {dims:?} at {starts:?} of {ext:?}");
                let sub = a.subarray(&starts, &ext).unwrap();
                assert_same(&sub, &ref_subarray(&a, &starts, &ext), &what);
                // Write a distinct patch back into the same box.
                let patch = sub.map(|v| T::from_f64(v.to_f64() + 1.0));
                let mut b = NdArray::from_vec(dims, a.data().to_vec()).unwrap();
                b.write_subarray(&starts, &patch).unwrap();
                assert_same(
                    &b,
                    &ref_write(&a, &starts, &patch),
                    &format!("write_{what}"),
                );
            }
            for axis in 0..rank {
                let d = dims[axis];
                for index in 0..d {
                    let what = format!("slice_axis {dims:?} axis {axis} at {index}");
                    let got = a.slice_axis(axis, index).unwrap();
                    assert_same(&got, &ref_slice(&a, axis, index), &what);
                }
                let mut picks = vec![vec![]];
                if d > 0 {
                    picks.push(vec![d - 1, 0, d - 1, d / 2]);
                    picks.push((0..d).rev().collect());
                }
                for positions in picks {
                    let what = format!("take_axis {dims:?} axis {axis} {positions:?}");
                    let got = a.take_axis(axis, &positions).unwrap();
                    assert_same(&got, &ref_take(&a, axis, &positions), &what);
                }
                let what = format!("fold_axis {dims:?} axis {axis}");
                let half = |acc: f64, v: f64| acc * 0.5 + v;
                let finish = |acc: f64, n: usize| acc / (n as f64 + 0.3);
                let got = a.fold_axis(axis, 0.25, half, finish);
                assert_same(&got, &ref_fold(&a, axis, 0.25, half, finish), &what);
                let sum = ref_fold(&a, axis, 0.0, |x, v| x + v, |x, _| x);
                assert_same(&a.sum_axis(axis), &sum, &format!("sum_{what}"));
                let mean = ref_fold(&a, axis, 0.0, |x, v| x + v, |x, n| x / n as f64);
                assert_same(&a.mean_axis(axis), &mean, &format!("mean_{what}"));
                let max = ref_fold(&a, axis, f64::NEG_INFINITY, f64::max, |x, _| x);
                assert_same(&a.max_axis(axis), &max, &format!("max_{what}"));
                let min = ref_fold(&a, axis, f64::INFINITY, f64::min, |x, _| x);
                assert_same(&a.min_axis(axis), &min, &format!("min_{what}"));
            }
            if rank <= 3 {
                for perm in permutations(rank) {
                    let what = format!("permute_axes {dims:?} by {perm:?}");
                    let got = a.permute_axes(&perm).unwrap();
                    assert_same(&got, &ref_permute(&a, &perm), &what);
                }
            }
        }
        // The dataflow engine's volume-axis transposes and their round trip.
        let a = fill::<T>(&[3, 4, 2, 5]);
        let moved = a.permute_axes(&[3, 0, 1, 2]).unwrap();
        assert_same(&moved, &ref_permute(&a, &[3, 0, 1, 2]), "permute [3,0,1,2]");
        let back = moved.permute_axes(&[1, 2, 3, 0]).unwrap();
        assert_same(
            &back,
            &ref_permute(&moved, &[1, 2, 3, 0]),
            "permute [1,2,3,0]",
        );
        assert_same(&back, &a, "permute round trip");
    }

    #[test]
    fn strided_ops_match_the_per_index_reference_for_f64() {
        check_all_ops::<f64>();
    }

    #[test]
    fn strided_ops_match_the_per_index_reference_for_u8() {
        check_all_ops::<u8>();
    }

    /// Codec decodes and deep copies recorded while `f` runs.
    fn ledger_delta(f: impl FnOnce()) -> (u64, u64) {
        let (codec, copies) = (CodecCounter::snapshot(), CopyCounter::snapshot());
        f();
        let decodes = CodecCounter::snapshot().since(&codec).by_codec;
        let copies = CopyCounter::snapshot().since(&copies).copies;
        (decodes.values().map(|s| s.decodes).sum(), copies)
    }

    #[test]
    fn compressed_inputs_decode_once_like_a_dense_access() {
        // A run of its own, so the deltas count only this test's traffic.
        with_copy_mode(CopyMode::Shared, || {
            let dims = [4, 6, 5];
            let runs = NdArray::<u8>::from_fn(&dims, |ix| u8::from(ix[0] >= 2));
            let ones = NdArray::<u8>::full(&dims, 1);
            for (dense, repr) in [(runs, ChunkRepr::Rle), (ones, ChunkRepr::Const)] {
                let fresh = || {
                    let c = dense.compressed();
                    assert_eq!(c.repr(), repr);
                    c
                };
                let c = fresh();
                let one_access = ledger_delta(|| {
                    c.data();
                });
                assert_eq!(one_access.0, 1, "{repr:?}: a dense access decodes once");
                type Op = Box<dyn Fn(&NdArray<u8>) -> Vec<u64>>;
                let ops: Vec<(&str, Op)> = vec![
                    (
                        "subarray",
                        Box::new(|a: &NdArray<u8>| {
                            bits(&a.subarray(&[1, 2, 1], &[3, 4, 3]).unwrap())
                        }),
                    ),
                    (
                        "slice_axis",
                        Box::new(|a: &NdArray<u8>| bits(&a.slice_axis(1, 4).unwrap())),
                    ),
                    (
                        "take_axis",
                        Box::new(|a: &NdArray<u8>| bits(&a.take_axis(2, &[4, 0, 4]).unwrap())),
                    ),
                    (
                        "permute_axes",
                        Box::new(|a: &NdArray<u8>| bits(&a.permute_axes(&[2, 0, 1]).unwrap())),
                    ),
                    (
                        "mean_axis",
                        Box::new(|a: &NdArray<u8>| bits(&a.mean_axis(0))),
                    ),
                    (
                        "write_subarray",
                        Box::new(|patch: &NdArray<u8>| {
                            let mut dst = NdArray::<u8>::zeros(&[6, 8, 7]);
                            dst.write_subarray(&[1, 1, 2], patch).unwrap();
                            bits(&dst)
                        }),
                    ),
                ];
                for (name, op) in &ops {
                    let c = fresh();
                    let mut got = Vec::new();
                    let delta = ledger_delta(|| got = op(&c));
                    assert_eq!(delta, one_access, "{repr:?} {name}: (decodes, copies)");
                    assert_eq!(got, op(&dense), "{repr:?} {name}: bits");
                }
                // An empty box never reads the buffer, so it decodes nothing.
                let c = fresh();
                let empty = ledger_delta(|| {
                    c.subarray(&[1, 0, 0], &[0, 6, 5]).unwrap();
                    c.take_axis(1, &[]).unwrap();
                });
                assert_eq!(empty, (0, 0), "{repr:?}: empty boxes decode nothing");
            }
        });
    }

    #[test]
    fn write_subarray_into_a_shared_buffer_records_one_cow() {
        with_copy_mode(CopyMode::Shared, || {
            let base = fill::<f64>(&[6, 7]);
            let patch = fill::<f64>(&[3, 4]);
            let mut dst = base.clone();
            assert!(dst.shares_buffer(&base));
            let before = CopyCounter::snapshot();
            dst.write_subarray(&[2, 3], &patch).unwrap();
            let delta = CopyCounter::snapshot().since(&before);
            assert_eq!(delta.copies, 1, "exactly one copy: {delta:?}");
            let cow = delta.by_reason.get("cow").copied().unwrap_or_default();
            assert_eq!((cow.copies, cow.bytes), (1, 6 * 7 * 8));
            assert!(!dst.shares_buffer(&base));
            assert_same(&dst, &ref_write(&base, &[2, 3], &patch), "cow write");
            // The sole owner now writes in place.
            let before = CopyCounter::snapshot();
            dst.write_subarray(&[0, 0], &patch).unwrap();
            assert_eq!(CopyCounter::snapshot().since(&before).copies, 0);
        });
    }
}

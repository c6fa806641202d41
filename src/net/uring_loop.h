// Vendored io_uring plumbing for the NetServer io_uring backend: raw
// syscall wrappers (no liburing dependency), a minimal submission/
// completion ring, and a registered provided-buffer ring for multishot
// recv. Everything here is single-threaded by contract — exactly one
// event-loop thread owns a ring, mirroring the one-loop-one-thread
// discipline of the epoll backend.
//
// Compiled out (stubs only) when BOUNCER_HAS_IOURING is 0; callers gate
// on QueryUringSupport().supported, which then reports the compile-time
// reason.

#ifndef BOUNCER_NET_URING_LOOP_H_
#define BOUNCER_NET_URING_LOOP_H_

#ifndef BOUNCER_HAS_IOURING
#define BOUNCER_HAS_IOURING 0
#endif

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"

#if BOUNCER_HAS_IOURING
#include <linux/io_uring.h>
#include <sys/socket.h>
#include <sys/uio.h>
#endif

namespace bouncer::net {

/// Result of the one-time kernel capability probe.
struct UringSupport {
  bool supported = false;
  /// Human-readable reason when unsupported ("io_uring_setup: EPERM",
  /// "multishot recv unsupported", "compiled out", ...).
  std::string reason;
};

/// Probes once per process (cached): ring setup, the opcodes the backend
/// needs (accept/recv/sendmsg/poll/async-cancel), EXT_ARG timeouts,
/// provided-buffer-ring registration, and — functionally, over a
/// socketpair — multishot recv with buffer selection (kernel >= 6.0; it
/// cannot be probed via IORING_REGISTER_PROBE because it is an opcode
/// flag, not an opcode). Multishot accept (5.19) and multishot poll
/// (5.13) are implied by multishot recv passing.
const UringSupport& QueryUringSupport();

#if BOUNCER_HAS_IOURING

/// One io_uring instance: setup, the three mmaps, SQE acquisition and
/// io_uring_enter submission. The owner thread fills SQEs via GetSqe()
/// and flushes them with Submit()/SubmitAndWait(); completions are read
/// in place from the CQ ring via DrainCqes() (no copy).
class UringRing {
 public:
  UringRing() = default;
  ~UringRing() { Close(); }
  UringRing(const UringRing&) = delete;
  UringRing& operator=(const UringRing&) = delete;

  /// `sq_entries` bounds the SQEs prepared between two flushes (GetSqe
  /// auto-flushes when full); `cq_entries` sizes the completion ring
  /// (IORING_SETUP_CQSIZE). Tries IORING_SETUP_COOP_TASKRUN first and
  /// retries without it on EINVAL (pre-5.19 kernels).
  Status Init(unsigned sq_entries, unsigned cq_entries);
  void Close();
  bool valid() const { return ring_fd_ >= 0; }
  int ring_fd() const { return ring_fd_; }
  uint32_t features() const { return features_; }

  /// Next free SQE, zeroed. Flushes the pending batch first when the SQ
  /// is full; returns nullptr only if that flush fails hard.
  io_uring_sqe* GetSqe();

  /// Flushes prepared SQEs without waiting. Returns a negative errno on
  /// hard failure, else the number submitted.
  int Submit();
  /// One io_uring_enter: flushes prepared SQEs and waits for at least
  /// `min_complete` completions or `timeout_ns` (0 = poll, no wait).
  /// Returns immediately when the CQ already holds entries.
  int SubmitAndWait(unsigned min_complete, int64_t timeout_ns);

  /// Invokes `fn(const io_uring_cqe&)` for every pending completion and
  /// advances the CQ head. Returns the number consumed.
  template <typename Fn>
  unsigned DrainCqes(Fn&& fn) {
    unsigned head = *cq_head_;  // Only this thread writes the head.
    const unsigned tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
    unsigned n = 0;
    while (head != tail) {
      fn(cqes_[head & cq_mask_]);
      ++head;
      ++n;
    }
    if (n > 0) __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
    return n;
  }

  bool CqePending() const {
    return *cq_head_ != __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
  }

  /// io_uring_enter calls performed since the last call (syscall
  /// accounting for Stats::syscalls).
  uint64_t TakeEnterCalls() {
    const uint64_t n = enter_calls_;
    enter_calls_ = 0;
    return n;
  }

  int RegisterBufRing(const io_uring_buf_reg& reg);
  int UnregisterBufRing(uint16_t bgid);

 private:
  int Enter(unsigned to_submit, unsigned min_complete, unsigned flags,
            const void* arg, size_t argsz);

  int ring_fd_ = -1;
  uint32_t features_ = 0;

  // SQ ring.
  void* sq_ring_ = nullptr;
  size_t sq_ring_bytes_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned* sq_flags_ = nullptr;
  unsigned* sq_array_ = nullptr;
  unsigned sq_mask_ = 0;
  unsigned sq_entries_ = 0;
  io_uring_sqe* sqes_ = nullptr;
  size_t sqes_bytes_ = 0;
  unsigned local_tail_ = 0;      ///< SQEs prepared (not yet published).
  unsigned submitted_tail_ = 0;  ///< SQEs handed to the kernel.

  // CQ ring (shares sq_ring_ mapping with IORING_FEAT_SINGLE_MMAP).
  void* cq_ring_ = nullptr;
  size_t cq_ring_bytes_ = 0;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  io_uring_cqe* cqes_ = nullptr;

  uint64_t enter_calls_ = 0;
};

/// A registered provided-buffer ring (IORING_REGISTER_PBUF_RING): the
/// kernel picks a free buffer for each multishot-recv completion and
/// reports its id in the CQE; the owner copies the bytes out and hands
/// the buffer back with Recycle(). All buffers live in one contiguous
/// pool allocated at Init — nothing allocates per recv.
class UringBufRing {
 public:
  UringBufRing() = default;
  ~UringBufRing();
  UringBufRing(const UringBufRing&) = delete;
  UringBufRing& operator=(const UringBufRing&) = delete;

  /// `entries` must be a power of two (<= 32768).
  Status Init(UringRing& ring, uint16_t bgid, uint32_t entries,
              uint32_t buf_bytes);
  void Destroy(UringRing& ring);

  uint8_t* Addr(uint16_t bid) {
    return pool_ + static_cast<size_t>(bid) * buf_bytes_;
  }
  /// Marks `bid` as consumed by a CQE (free-buffer accounting).
  void Take() { --free_bufs_; }
  /// Returns `bid` to the kernel's free set.
  void Recycle(uint16_t bid);

  uint32_t buf_bytes() const { return buf_bytes_; }
  uint32_t entries() const { return entries_; }
  /// Buffers the kernel can still pick; 0 means the next recv ENOBUFS.
  uint32_t free_bufs() const { return free_bufs_; }

 private:
  io_uring_buf_ring* br_ = nullptr;
  uint8_t* pool_ = nullptr;
  uint32_t entries_ = 0;
  uint32_t buf_bytes_ = 0;
  uint32_t mask_ = 0;
  uint32_t free_bufs_ = 0;
  uint16_t bgid_ = 0;
  uint16_t tail_ = 0;
  bool registered_ = false;
};

// SQE preparation helpers (sqe is already zeroed by GetSqe).
void PrepAcceptMultishot(io_uring_sqe* sqe, int fd, uint64_t user_data);
void PrepRecvMultishot(io_uring_sqe* sqe, int fd, uint16_t buf_group,
                       uint64_t user_data);
void PrepSendmsg(io_uring_sqe* sqe, int fd, const struct msghdr* msg,
                 unsigned msg_flags, uint64_t user_data);
void PrepPollMultishot(io_uring_sqe* sqe, int fd, uint32_t poll_mask,
                       uint64_t user_data);
/// Cancels the submission whose user_data equals `target_user_data`.
void PrepCancel(io_uring_sqe* sqe, uint64_t target_user_data,
                uint64_t user_data);

/// Bytes of one provided buffer that arrived before a connection could
/// absorb them (rx ring full or read paused mid-flight): the buffer is
/// held out of the kernel's free set until the copy completes.
struct StagedBuf {
  uint16_t bid = 0;
  uint32_t offset = 0;
  uint32_t len = 0;
};

/// Per-loop io_uring backend state, owned by the loop thread.
struct UringState {
  UringRing ring;
  UringBufRing bufs;
  bool accept_armed = false;
  bool event_armed = false;
  /// Slot indices whose multishot recv died with ENOBUFS; re-armed as
  /// buffers recycle.
  std::vector<uint32_t> rearm;
};

#else  // !BOUNCER_HAS_IOURING

struct UringState;  // Never instantiated; Loop holds a null pointer.

#endif  // BOUNCER_HAS_IOURING

}  // namespace bouncer::net

#endif  // BOUNCER_NET_URING_LOOP_H_

#include "src/net/uring_loop.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#if BOUNCER_HAS_IOURING

#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#ifndef IORING_UNREGISTER_PBUF_RING
#define IORING_UNREGISTER_PBUF_RING 23
#endif

namespace bouncer::net {

namespace {

int SysSetup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_setup, entries, params));
}

int SysEnter(int fd, unsigned to_submit, unsigned min_complete,
             unsigned flags, const void* arg, size_t argsz) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, arg, argsz));
}

int SysRegister(int fd, unsigned opcode, const void* arg, unsigned nr_args) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

}  // namespace

Status UringRing::Init(unsigned sq_entries, unsigned cq_entries) {
  if (valid()) return Status::FailedPrecondition("ring already initialized");
  io_uring_params params;
  std::memset(&params, 0, sizeof(params));
  params.flags = IORING_SETUP_CQSIZE | IORING_SETUP_COOP_TASKRUN;
  params.cq_entries = cq_entries;
  int fd = SysSetup(sq_entries, &params);
  if (fd < 0 && errno == EINVAL) {
    // Pre-5.19 kernel: retry without the task-run optimization.
    std::memset(&params, 0, sizeof(params));
    params.flags = IORING_SETUP_CQSIZE;
    params.cq_entries = cq_entries;
    fd = SysSetup(sq_entries, &params);
  }
  if (fd < 0) {
    return Status::Internal(std::string("io_uring_setup failed: ") +
                            std::strerror(errno));
  }
  ring_fd_ = fd;
  features_ = params.features;
  sq_entries_ = params.sq_entries;

  sq_ring_bytes_ =
      params.sq_off.array + params.sq_entries * sizeof(unsigned);
  cq_ring_bytes_ =
      params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
  if (features_ & IORING_FEAT_SINGLE_MMAP) {
    if (cq_ring_bytes_ > sq_ring_bytes_) sq_ring_bytes_ = cq_ring_bytes_;
    cq_ring_bytes_ = sq_ring_bytes_;
  }
  sq_ring_ = ::mmap(nullptr, sq_ring_bytes_, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
  if (sq_ring_ == MAP_FAILED) {
    sq_ring_ = nullptr;
    Close();
    return Status::Internal("io_uring SQ ring mmap failed");
  }
  if (features_ & IORING_FEAT_SINGLE_MMAP) {
    cq_ring_ = sq_ring_;
  } else {
    cq_ring_ = ::mmap(nullptr, cq_ring_bytes_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_,
                      IORING_OFF_CQ_RING);
    if (cq_ring_ == MAP_FAILED) {
      cq_ring_ = nullptr;
      Close();
      return Status::Internal("io_uring CQ ring mmap failed");
    }
  }
  sqes_bytes_ = params.sq_entries * sizeof(io_uring_sqe);
  sqes_ = static_cast<io_uring_sqe*>(
      ::mmap(nullptr, sqes_bytes_, PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES));
  if (sqes_ == MAP_FAILED) {
    sqes_ = nullptr;
    Close();
    return Status::Internal("io_uring SQE array mmap failed");
  }

  auto* sq_base = static_cast<uint8_t*>(sq_ring_);
  sq_head_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.head);
  sq_tail_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.tail);
  sq_flags_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.flags);
  sq_array_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.array);
  sq_mask_ = *reinterpret_cast<unsigned*>(sq_base + params.sq_off.ring_mask);
  auto* cq_base = static_cast<uint8_t*>(cq_ring_);
  cq_head_ = reinterpret_cast<unsigned*>(cq_base + params.cq_off.head);
  cq_tail_ = reinterpret_cast<unsigned*>(cq_base + params.cq_off.tail);
  cq_mask_ = *reinterpret_cast<unsigned*>(cq_base + params.cq_off.ring_mask);
  cqes_ = reinterpret_cast<io_uring_cqe*>(cq_base + params.cq_off.cqes);

  // SQE i always goes through array slot i & mask: identity, set once.
  for (unsigned i = 0; i <= sq_mask_; ++i) sq_array_[i] = i;
  local_tail_ = submitted_tail_ = *sq_tail_;
  return Status::OK();
}

void UringRing::Close() {
  if (sqes_ != nullptr) ::munmap(sqes_, sqes_bytes_);
  if (cq_ring_ != nullptr && cq_ring_ != sq_ring_) {
    ::munmap(cq_ring_, cq_ring_bytes_);
  }
  if (sq_ring_ != nullptr) ::munmap(sq_ring_, sq_ring_bytes_);
  if (ring_fd_ >= 0) ::close(ring_fd_);
  ring_fd_ = -1;
  sq_ring_ = cq_ring_ = nullptr;
  sqes_ = nullptr;
  sq_head_ = sq_tail_ = sq_flags_ = sq_array_ = nullptr;
  cq_head_ = cq_tail_ = nullptr;
  cqes_ = nullptr;
  local_tail_ = submitted_tail_ = 0;
}

io_uring_sqe* UringRing::GetSqe() {
  const unsigned head = __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE);
  if (local_tail_ - head >= sq_entries_) {
    if (Submit() < 0) return nullptr;
  }
  io_uring_sqe* sqe = &sqes_[local_tail_ & sq_mask_];
  ++local_tail_;
  std::memset(sqe, 0, sizeof(*sqe));
  return sqe;
}

int UringRing::Enter(unsigned to_submit, unsigned min_complete,
                     unsigned flags, const void* arg, size_t argsz) {
  ++enter_calls_;
  const int ret = SysEnter(ring_fd_, to_submit, min_complete, flags, arg,
                           argsz);
  return ret >= 0 ? ret : -errno;
}

int UringRing::Submit() {
  unsigned to_submit = local_tail_ - submitted_tail_;
  if (to_submit == 0) return 0;
  __atomic_store_n(sq_tail_, local_tail_, __ATOMIC_RELEASE);
  int total = 0;
  while (to_submit > 0) {
    int ret = Enter(to_submit, 0, 0, nullptr, 0);
    if (ret == -EINTR) continue;
    if (ret == -EAGAIN || ret == -EBUSY) {
      // CQ overflow backpressure: ask the kernel to flush completions.
      ret = Enter(to_submit, 0, IORING_ENTER_GETEVENTS, nullptr, 0);
      if (ret < 0) return ret;
    } else if (ret < 0) {
      return ret;
    }
    submitted_tail_ += static_cast<unsigned>(ret);
    to_submit -= static_cast<unsigned>(ret);
    total += ret;
  }
  return total;
}

int UringRing::SubmitAndWait(unsigned min_complete, int64_t timeout_ns) {
  __atomic_store_n(sq_tail_, local_tail_, __ATOMIC_RELEASE);
  for (;;) {
    const unsigned to_submit = local_tail_ - submitted_tail_;
    __kernel_timespec ts;
    ts.tv_sec = timeout_ns / 1000000000;
    ts.tv_nsec = timeout_ns % 1000000000;
    io_uring_getevents_arg arg;
    std::memset(&arg, 0, sizeof(arg));
    arg.ts = reinterpret_cast<uint64_t>(&ts);
    const int ret =
        Enter(to_submit, min_complete,
              IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG, &arg,
              sizeof(arg));
    if (ret == -EINTR) continue;
    if (ret == -ETIME) {
      submitted_tail_ += to_submit;  // SQEs were consumed before the wait.
      return 0;
    }
    if (ret < 0) return ret;
    submitted_tail_ += static_cast<unsigned>(ret);
    if (submitted_tail_ != local_tail_) continue;  // Kernel SQ was full.
    return ret;
  }
}

int UringRing::RegisterBufRing(const io_uring_buf_reg& reg) {
  const int ret = SysRegister(ring_fd_, IORING_REGISTER_PBUF_RING, &reg, 1);
  return ret >= 0 ? ret : -errno;
}

int UringRing::UnregisterBufRing(uint16_t bgid) {
  io_uring_buf_reg reg;
  std::memset(&reg, 0, sizeof(reg));
  reg.bgid = bgid;
  const int ret =
      SysRegister(ring_fd_, IORING_UNREGISTER_PBUF_RING, &reg, 1);
  return ret >= 0 ? ret : -errno;
}

UringBufRing::~UringBufRing() {
  // The owning ring may already be closed (which unregisters
  // implicitly); only the memory is ours to release here.
  std::free(br_);
  std::free(pool_);
}

Status UringBufRing::Init(UringRing& ring, uint16_t bgid, uint32_t entries,
                          uint32_t buf_bytes) {
  if ((entries & (entries - 1)) != 0 || entries == 0 || entries > 32768) {
    return Status::InvalidArgument("buffer ring entries must be 2^k <= 32768");
  }
  void* ring_mem = nullptr;
  void* pool_mem = nullptr;
  if (::posix_memalign(&ring_mem, 4096, entries * sizeof(io_uring_buf)) != 0 ||
      ::posix_memalign(&pool_mem, 4096,
                       static_cast<size_t>(entries) * buf_bytes) != 0) {
    std::free(ring_mem);
    return Status::Internal("buffer ring allocation failed");
  }
  std::memset(ring_mem, 0, entries * sizeof(io_uring_buf));
  br_ = static_cast<io_uring_buf_ring*>(ring_mem);
  pool_ = static_cast<uint8_t*>(pool_mem);
  entries_ = entries;
  buf_bytes_ = buf_bytes;
  mask_ = entries - 1;
  bgid_ = bgid;
  tail_ = 0;

  io_uring_buf_reg reg;
  std::memset(&reg, 0, sizeof(reg));
  reg.ring_addr = reinterpret_cast<uint64_t>(br_);
  reg.ring_entries = entries_;
  reg.bgid = bgid_;
  if (const int ret = ring.RegisterBufRing(reg); ret < 0) {
    std::free(br_);
    std::free(pool_);
    br_ = nullptr;
    pool_ = nullptr;
    return Status::Internal(
        std::string("IORING_REGISTER_PBUF_RING failed: ") +
        std::strerror(-ret));
  }
  registered_ = true;
  for (uint32_t bid = 0; bid < entries_; ++bid) {
    Recycle(static_cast<uint16_t>(bid));
  }
  free_bufs_ = entries_;  // Recycle() over-counted from zero.
  return Status::OK();
}

void UringBufRing::Destroy(UringRing& ring) {
  if (registered_ && ring.valid()) ring.UnregisterBufRing(bgid_);
  registered_ = false;
  std::free(br_);
  std::free(pool_);
  br_ = nullptr;
  pool_ = nullptr;
  entries_ = 0;
  free_bufs_ = 0;
}

void UringBufRing::Recycle(uint16_t bid) {
  // Never dereference br_->bufs from C++: __DECLARE_FLEX_ARRAY pads its
  // anonymous empty struct to one byte under C++, shifting `bufs` to
  // offset 8 while the kernel reads entries from offset 0. Index the
  // ring memory the way the kernel does instead. (Entry 0's resv field
  // aliases the ring's tail word by design; only addr/len/bid are ours.)
  auto* entries = reinterpret_cast<io_uring_buf*>(br_);
  io_uring_buf& buf = entries[tail_ & mask_];
  buf.addr = reinterpret_cast<uint64_t>(Addr(bid));
  buf.len = buf_bytes_;
  buf.bid = bid;
  ++tail_;
  __atomic_store_n(&br_->tail, tail_, __ATOMIC_RELEASE);
  ++free_bufs_;
}

void PrepAcceptMultishot(io_uring_sqe* sqe, int fd, uint64_t user_data) {
  sqe->opcode = IORING_OP_ACCEPT;
  sqe->fd = fd;
  sqe->ioprio = IORING_ACCEPT_MULTISHOT;
  sqe->accept_flags = SOCK_NONBLOCK | SOCK_CLOEXEC;
  sqe->user_data = user_data;
}

void PrepRecvMultishot(io_uring_sqe* sqe, int fd, uint16_t buf_group,
                       uint64_t user_data) {
  sqe->opcode = IORING_OP_RECV;
  sqe->fd = fd;
  sqe->ioprio = IORING_RECV_MULTISHOT;
  sqe->flags = IOSQE_BUFFER_SELECT;
  sqe->buf_group = buf_group;
  sqe->user_data = user_data;
}

void PrepSendmsg(io_uring_sqe* sqe, int fd, const struct msghdr* msg,
                 unsigned msg_flags, uint64_t user_data) {
  sqe->opcode = IORING_OP_SENDMSG;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<uint64_t>(msg);
  sqe->len = 1;
  sqe->msg_flags = msg_flags;
  sqe->user_data = user_data;
}

void PrepPollMultishot(io_uring_sqe* sqe, int fd, uint32_t poll_mask,
                       uint64_t user_data) {
  sqe->opcode = IORING_OP_POLL_ADD;
  sqe->fd = fd;
  // Little-endian layout assumed, like the rest of the wire protocol.
  sqe->poll32_events = poll_mask;
  sqe->len = IORING_POLL_ADD_MULTI;
  sqe->user_data = user_data;
}

void PrepCancel(io_uring_sqe* sqe, uint64_t target_user_data,
                uint64_t user_data) {
  sqe->opcode = IORING_OP_ASYNC_CANCEL;
  sqe->fd = -1;
  sqe->addr = target_user_data;
  sqe->user_data = user_data;
}

namespace {

/// IORING_REGISTER_PROBE check for the opcodes the backend submits.
bool ProbeOpcodes(int ring_fd, std::string* reason) {
  constexpr unsigned kProbeOps = 64;
  // io_uring_probe ends in a flexible array member, so it cannot be
  // nested in a struct; size a raw buffer for the header plus ops.
  alignas(io_uring_probe) uint8_t raw[sizeof(io_uring_probe) +
                                     kProbeOps * sizeof(io_uring_probe_op)];
  std::memset(raw, 0, sizeof(raw));
  auto* probe = reinterpret_cast<io_uring_probe*>(raw);
  if (SysRegister(ring_fd, IORING_REGISTER_PROBE, probe, kProbeOps) < 0) {
    *reason = std::string("IORING_REGISTER_PROBE failed: ") +
              std::strerror(errno);
    return false;
  }
  const uint8_t needed[] = {IORING_OP_ACCEPT, IORING_OP_RECV,
                            IORING_OP_SENDMSG, IORING_OP_POLL_ADD,
                            IORING_OP_ASYNC_CANCEL};
  for (const uint8_t op : needed) {
    if (op > probe->last_op ||
        (probe->ops[op].flags & IO_URING_OP_SUPPORTED) == 0) {
      *reason = "io_uring opcode " + std::to_string(op) + " unsupported";
      return false;
    }
  }
  return true;
}

UringSupport RunProbe() {
  UringSupport result;
  UringRing ring;
  if (Status s = ring.Init(8, 16); !s.ok()) {
    result.reason = s.message();
    return result;
  }
  if ((ring.features() & IORING_FEAT_EXT_ARG) == 0) {
    result.reason = "kernel lacks IORING_FEAT_EXT_ARG (need >= 5.11)";
    return result;
  }
  if ((ring.features() & IORING_FEAT_NODROP) == 0) {
    result.reason = "kernel lacks IORING_FEAT_NODROP";
    return result;
  }
  if (!ProbeOpcodes(ring.ring_fd(), &result.reason)) return result;

  UringBufRing bufs;
  if (Status s = bufs.Init(ring, 0, 8, 256); !s.ok()) {
    result.reason = "provided buffer rings unsupported (need >= 5.19): " +
                    std::string(s.message());
    return result;
  }

  // Functional probe: multishot recv with buffer selection over a
  // socketpair. IORING_RECV_MULTISHOT is an opcode flag (kernel >= 6.0)
  // that IORING_REGISTER_PROBE cannot see; an -EINVAL completion is how
  // older kernels report it.
  int sp[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sp) != 0) {
    bufs.Destroy(ring);
    result.reason = "probe socketpair failed";
    return result;
  }
  io_uring_sqe* sqe = ring.GetSqe();
  PrepRecvMultishot(sqe, sp[0], 0, 1);
  const char byte = 'x';
  [[maybe_unused]] ssize_t wr = ::write(sp[1], &byte, 1);
  ring.SubmitAndWait(1, 500 * 1000 * 1000);
  int recv_res = -ETIME;
  uint32_t recv_flags = 0;
  ring.DrainCqes([&](const io_uring_cqe& cqe) {
    if (cqe.user_data == 1) {
      recv_res = cqe.res;
      recv_flags = cqe.flags;
    }
  });
  ::close(sp[0]);
  ::close(sp[1]);
  bufs.Destroy(ring);
  if (recv_res == -EINVAL) {
    result.reason = "multishot recv unsupported (need kernel >= 6.0)";
    return result;
  }
  if (recv_res != 1 || (recv_flags & IORING_CQE_F_BUFFER) == 0) {
    result.reason = "multishot recv probe failed (res=" +
                    std::to_string(recv_res) + ")";
    return result;
  }
  result.supported = true;
  return result;
}

}  // namespace

const UringSupport& QueryUringSupport() {
  static const UringSupport support = RunProbe();
  return support;
}

}  // namespace bouncer::net

#else  // !BOUNCER_HAS_IOURING

namespace bouncer::net {

const UringSupport& QueryUringSupport() {
  static const UringSupport support = {
      false, "io_uring backend compiled out (BOUNCER_IOURING=OFF)"};
  return support;
}

}  // namespace bouncer::net

#endif  // BOUNCER_HAS_IOURING

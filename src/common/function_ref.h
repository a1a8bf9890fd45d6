// A non-owning, non-allocating reference to a callable: one object pointer
// plus one trampoline, in place of std::function's type-erased copy. For
// parameters that are only called during the callee's run.
#ifndef TRIENUM_COMMON_FUNCTION_REF_H_
#define TRIENUM_COMMON_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace trienum {

template <typename Sig>
class FunctionRef;

/// \brief Borrows a callable of signature R(Args...).
///
/// The callable must outlive every call through the reference: bind it to
/// a parameter (a temporary lambda argument lives for the whole call), not
/// to a variable that outlives the lambda.
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept  // NOLINT implicit
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace trienum

#endif  // TRIENUM_COMMON_FUNCTION_REF_H_

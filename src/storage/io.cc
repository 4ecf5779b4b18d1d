#include "storage/io.h"

#include "util/env.h"

namespace park {

Result<std::string> ReadFileToString(const std::string& path) {
  return Env::Default()->ReadFileToString(path);
}

Status WriteStringToFile(const std::string& contents,
                         const std::string& path) {
  return AtomicWriteFile(Env::Default(), contents, path, /*sync=*/false);
}

}  // namespace park

/* Makes 4000 ioctl calls with distinct requests on an invalid descriptor,
 * so a discovery run's result (one sub-feature each) overfills a pipe. */
#include "common.h"

void _start(void)
{
    for (long request = 0; request < 4000; request++)
        sys3(SYS_ioctl, -1, request, 0);
    finish(0);
}
